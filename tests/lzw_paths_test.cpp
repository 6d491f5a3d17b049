// Property tests of lzw::Encoder against the reference encoder in
// tests/support/lzw_oracle (per-character re-slice, child-list scan through
// one tie-break switch, per-bit emission, inline telemetry): for every
// tie-break and X-assignment combination the two must produce identical
// codes, stream bytes and telemetry — the invariant the encoder's
// throughput work is built on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "lzw/verify.h"
#include "support/lzw_oracle.h"

namespace tdc::lzw {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

constexpr Tiebreak kTiebreaks[] = {Tiebreak::First, Tiebreak::LowestChar,
                                   Tiebreak::MostRecent, Tiebreak::MostChildren,
                                   Tiebreak::Lookahead};
constexpr XAssignMode kModes[] = {XAssignMode::Dynamic, XAssignMode::ZeroFill,
                                  XAssignMode::OneFill, XAssignMode::RepeatFill,
                                  XAssignMode::RandomFill};

void expect_same_histogram(const obs::LocalHistogram& a,
                           const obs::LocalHistogram& b, const char* what) {
  EXPECT_EQ(a.snapshot().count, b.snapshot().count) << what;
  EXPECT_EQ(a.snapshot().sum, b.snapshot().sum) << what;
  EXPECT_EQ(a.snapshot().min, b.snapshot().min) << what;
  EXPECT_EQ(a.snapshot().max, b.snapshot().max) << what;
  EXPECT_EQ(a.snapshot().buckets, b.snapshot().buckets) << what;
}

void expect_identical(const EncodeResult& a, const EncodeResult& b,
                      const char* what) {
  EXPECT_EQ(a.codes, b.codes) << what;
  EXPECT_EQ(a.code_lengths, b.code_lengths) << what;
  EXPECT_EQ(a.stream.bit_count(), b.stream.bit_count()) << what;
  EXPECT_EQ(a.stream.bytes(), b.stream.bytes()) << what;
  EXPECT_EQ(a.input_chars, b.input_chars) << what;
  EXPECT_EQ(a.dict_codes_used, b.dict_codes_used) << what;
  EXPECT_EQ(a.longest_entry_bits, b.longest_entry_bits) << what;
  EXPECT_EQ(a.longest_match_bits, b.longest_match_bits) << what;
  const EncoderTelemetry& x = a.telemetry;
  const EncoderTelemetry& y = b.telemetry;
  EXPECT_EQ(x.probes_fast, y.probes_fast) << what;
  EXPECT_EQ(x.probes_scan, y.probes_scan) << what;
  EXPECT_EQ(x.match_extensions, y.match_extensions) << what;
  EXPECT_EQ(x.x_bits_input, y.x_bits_input) << what;
  EXPECT_EQ(x.x_bits_matched, y.x_bits_matched) << what;
  EXPECT_EQ(x.x_bits_zeroed, y.x_bits_zeroed) << what;
  EXPECT_EQ(x.x_bits_prefilled, y.x_bits_prefilled) << what;
  EXPECT_EQ(x.entries_added, y.entries_added) << what;
  EXPECT_EQ(x.dict_full_events, y.dict_full_events) << what;
  expect_same_histogram(x.match_chars, y.match_chars, what);
  expect_same_histogram(x.code_width_bits, y.code_width_bits, what);
  EXPECT_EQ(x.to_json(), y.to_json()) << what;
}

TEST(MatchStrategyProperty, IndexedMatchesLegacyAcrossTiebreaksAndModes) {
  const LzwConfig config{.dict_size = 512, .char_bits = 5, .entry_bits = 40};
  for (const double x_density : {0.0, 0.3, 0.9}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const TritVector input = random_cube(4000, x_density, seed);
      for (const Tiebreak tb : kTiebreaks) {
        for (const XAssignMode mode : kModes) {
          const auto a = Encoder(config, tb).encode(input, mode, /*rng_seed=*/seed);
          const auto b = oracle::encode(config, tb, input, mode, /*rng_seed=*/seed);
          const std::string what =
              "tiebreak=" + std::to_string(static_cast<int>(tb)) +
              " mode=" + std::to_string(static_cast<int>(mode)) +
              " x=" + std::to_string(x_density) + " seed=" + std::to_string(seed);
          expect_identical(a, b, what.c_str());
        }
      }
    }
  }
}

TEST(MatchStrategyProperty, VariableWidthStreamsIdentical) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63,
                         .variable_width = true};
  const TritVector input = random_cube(6000, 0.6, 11);
  const auto a = Encoder(config, Tiebreak::First).encode(input);
  const auto b = oracle::encode(config, Tiebreak::First, input);
  expect_identical(a, b, "variable width");
}

TEST(MatchStrategyProperty, IndexedPathStillVerifiesAgainstDecoder) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  for (const double x_density : {0.1, 0.9}) {
    const TritVector input = random_cube(8000, x_density, 23);
    const auto encoded = Encoder(config).encode(input);
    EXPECT_TRUE(verify_roundtrip(input, encoded).ok)
        << "x_density=" << x_density;
  }
}

TEST(MatchStrategyProperty, TailPartialCharacterAgrees) {
  // Input length not divisible by char_bits: the final character is padded
  // with X — both paths must treat it identically.
  const LzwConfig config{.dict_size = 256, .char_bits = 7, .entry_bits = 63};
  const TritVector input = random_cube(1003, 0.4, 5);
  const auto a = Encoder(config, Tiebreak::First).encode(input);
  const auto b = oracle::encode(config, Tiebreak::First, input);
  expect_identical(a, b, "tail partial char");
}

// Adversarial X-density sweep: fully specified (x=0, the SWAR all-care fast
// path), all-X (x=1, every char matches every entry — dictionary growth is
// pure tiebreak policy), and blocky runs that flip between the two regimes
// at non-char-aligned boundaries. Every tiebreak × X-assign pair must keep
// the encoder bit-identical to the oracle AND decode-roundtrip clean.
TritVector blocky_cube(std::size_t n, std::size_t run, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  bool specified = true;
  std::size_t left = run;
  for (std::size_t i = 0; i < n; ++i) {
    if (left == 0) {
      specified = !specified;
      // Uneven runs so block edges drift across char boundaries.
      left = 1 + rng.below(run);
    }
    --left;
    if (specified) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

TEST(MatchStrategyProperty, AdversarialDensitiesBitIdenticalAndRoundTrip) {
  const LzwConfig config{.dict_size = 512, .char_bits = 5, .entry_bits = 40};
  std::vector<std::pair<const char*, TritVector>> corpora;
  corpora.emplace_back("all_specified", random_cube(3000, 0.0, 41));
  corpora.emplace_back("all_x", random_cube(3000, 1.0, 42));
  corpora.emplace_back("blocky_short", blocky_cube(3000, 3, 43));
  corpora.emplace_back("blocky_long", blocky_cube(3000, 64, 44));
  for (const auto& [name, input] : corpora) {
    for (const Tiebreak tb : kTiebreaks) {
      for (const XAssignMode mode : kModes) {
        const std::string what =
            std::string(name) +
            " tiebreak=" + std::to_string(static_cast<int>(tb)) +
            " mode=" + std::to_string(static_cast<int>(mode));
        const auto a = Encoder(config, tb).encode(input, mode, /*rng_seed=*/7);
        const auto b = oracle::encode(config, tb, input, mode, /*rng_seed=*/7);
        expect_identical(a, b, what.c_str());
        const auto check = verify_roundtrip(input, a);
        EXPECT_TRUE(check.ok) << what;
      }
    }
  }
}

// Variable-width streams under the same adversarial corpora: width bumps
// land at different codes per tiebreak, so this pins the batched BitWriter's
// mid-stream width changes against the oracle's per-bit emission.
TEST(MatchStrategyProperty, AdversarialDensitiesVariableWidthIdentical) {
  const LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63,
                         .variable_width = true};
  const TritVector inputs[] = {random_cube(4000, 0.0, 51),
                               random_cube(4000, 1.0, 52),
                               blocky_cube(4000, 11, 53)};
  for (const TritVector& input : inputs) {
    for (const Tiebreak tb : kTiebreaks) {
      const auto a = Encoder(config, tb).encode(input);
      const auto b = oracle::encode(config, tb, input);
      expect_identical(a, b, "adversarial variable width");
      EXPECT_TRUE(verify_roundtrip(input, a).ok);
    }
  }
}

// The bounded dictionary is the normal state on real test sets: most
// profiles freeze, and most codes come after the freeze, at 35-93 % X. The
// random cubes above mostly freeze only at low X. These inputs are sized so
// that every (X density, character width, tie-break, code width) case fills
// its dictionary and then keeps matching against the frozen one, and the
// encoder must still equal the oracle there and round-trip through the
// decoder.
TEST(EncoderOracleProperty, FrozenXDenseRegimeMatchesOracle) {
  for (const std::uint32_t cc : {1u, 2u, 7u, 8u, 9u, 16u}) {
    for (const bool variable : {false, true}) {
      const LzwConfig config{.dict_size = (1u << cc) + 64,
                             .char_bits = cc,
                             .entry_bits = 16 * cc,
                             .variable_width = variable};
      for (const double x_density : {0.35, 0.7, 0.93}) {
        const TritVector input =
            random_cube(3000 * cc + cc / 2, x_density, 100 + cc);
        for (const Tiebreak tb : kTiebreaks) {
          const std::string what =
              config.describe() + (variable ? " var" : " fixed") +
              " x=" + std::to_string(x_density) +
              " tiebreak=" + std::to_string(static_cast<int>(tb));
          const auto a = Encoder(config, tb).encode(input);
          const auto b = oracle::encode(config, tb, input);
          ASSERT_EQ(a.telemetry.dict_full_events, 1u) << what;
          expect_identical(a, b, what.c_str());
          EXPECT_TRUE(verify_roundtrip(input, a).ok) << what;
          if (HasFailure()) return;
        }
      }
    }
  }
}

// The match loop is compiled twice per tie-break, with and without a step
// observer; both must produce the same result, and the observed one must
// report one step per character plus the final flush.
TEST(EncoderOracleProperty, ObserverDoesNotChangeOutput) {
  const LzwConfig config{.dict_size = 300, .char_bits = 5, .entry_bits = 40,
                         .variable_width = true};
  const TritVector input = random_cube(4003, 0.7, 61);
  for (const Tiebreak tb : kTiebreaks) {
    std::uint64_t steps = 0;
    std::uint64_t emitted = 0;
    const auto observed = Encoder(config, tb).encode(
        input, XAssignMode::Dynamic, 1, [&](const EncoderStep& step) {
          ++steps;
          if (step.emitted != kNoCode) ++emitted;
        });
    const auto plain = Encoder(config, tb).encode(input);
    expect_identical(observed, plain, "observer");
    EXPECT_EQ(steps, plain.input_chars + 1);
    EXPECT_EQ(emitted, plain.codes.size());
  }
}

}  // namespace
}  // namespace tdc::lzw
