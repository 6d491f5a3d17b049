#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "lzw/config.h"
#include "lzw/decoder.h"
#include "lzw/dictionary.h"
#include "lzw/encoder.h"
#include "lzw/verify.h"
#include "support/lzw_oracle.h"

namespace tdc::lzw {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

/// Random ternary vector with the given X density.
TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

// ---------------------------------------------------------------- LzwConfig

TEST(LzwConfigTest, DerivedQuantities) {
  LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  EXPECT_EQ(c.code_bits(), 10u);
  EXPECT_EQ(c.literal_count(), 128u);
  EXPECT_EQ(c.first_code(), 128u);
  EXPECT_EQ(c.max_entry_chars(), 9u);
  EXPECT_FALSE(c.degenerate());
}

TEST(LzwConfigTest, NonPowerOfTwoDictSize) {
  LzwConfig c{.dict_size = 1000, .char_bits = 7, .entry_bits = 63};
  EXPECT_EQ(c.code_bits(), 10u);  // still needs 10 bits for code 999
}

TEST(LzwConfigTest, DegenerateWhenLiteralsFillDictionary) {
  // Paper Table 4: at C_C = 10 with N = 1024 "there are no more compress
  // codes available" — every code is a literal.
  LzwConfig c{.dict_size = 1024, .char_bits = 10, .entry_bits = 63};
  EXPECT_TRUE(c.degenerate());
  EXPECT_NO_THROW(c.validate());
}

TEST(LzwConfigTest, ValidationRejectsBadShapes) {
  EXPECT_THROW((LzwConfig{.dict_size = 64, .char_bits = 7, .entry_bits = 63}.validate()),
               std::invalid_argument);  // dict smaller than literal set
  EXPECT_THROW((LzwConfig{.dict_size = 1024, .char_bits = 0, .entry_bits = 63}.validate()),
               std::invalid_argument);
  EXPECT_THROW((LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 3}.validate()),
               std::invalid_argument);  // entry narrower than one char
}

// ---------------------------------------------------------------- Dictionary

LzwConfig tiny_config() {
  // 1-bit characters as in the paper's Fig. 3/4 walkthrough.
  return LzwConfig{.dict_size = 8, .char_bits = 1, .entry_bits = 8};
}

TEST(DictionaryTest, LiteralsPredefined) {
  Dictionary d(tiny_config());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.next_code(), 2u);
  EXPECT_TRUE(d.defined(0));
  EXPECT_TRUE(d.defined(1));
  EXPECT_FALSE(d.defined(2));
  EXPECT_EQ(d.length(0), 1u);
  EXPECT_EQ(d.expand(1), (std::vector<std::uint32_t>{1}));
}

TEST(DictionaryTest, AddAndExpandChain) {
  Dictionary d(tiny_config());
  const auto c2 = d.add(1, 0);  // "10"
  const auto c3 = d.add(c2, 1);  // "101"
  EXPECT_EQ(c2, 2u);
  EXPECT_EQ(c3, 3u);
  EXPECT_EQ(d.expand(c3), (std::vector<std::uint32_t>{1, 0, 1}));
  EXPECT_EQ(d.first_char(c3), 1u);
  EXPECT_EQ(d.last_char(c3), 1u);
  EXPECT_EQ(d.parent(c3), c2);
  EXPECT_EQ(d.length(c3), 3u);
  EXPECT_EQ(d.length_bits(c3), 3u);
}

TEST(DictionaryTest, ChildLookup) {
  Dictionary d(tiny_config());
  const auto c2 = d.add(0, 0);
  EXPECT_EQ(d.child(0, 0), c2);
  EXPECT_EQ(d.child(0, 1), kNoCode);
  EXPECT_EQ(d.children(0).size(), 1u);
}

// Property: the hash index behind child() agrees with a scan of the
// insertion-ordered child lists for every (code, character) pair, at a
// dictionary size that forces many index collisions.
TEST(DictionaryTest, HashIndexAgreesWithChildLists) {
  const LzwConfig c{.dict_size = 2048, .char_bits = 7, .entry_bits = 1 << 16};
  Dictionary d(c);
  bits::Rng rng(4242);
  while (!d.full()) {
    const auto parent = rng.below(d.size());
    const auto ch = rng.below(c.literal_count());
    bool exists = false;
    for (const auto& [cc, cd] : d.children(parent)) exists |= cc == ch;
    if (exists || !d.extendable(parent)) continue;
    ASSERT_NE(d.add(parent, ch), kNoCode);
  }
  for (std::uint32_t code = 0; code < d.size(); ++code) {
    for (const auto& [ch, child] : d.children(code)) {
      ASSERT_EQ(d.child(code, ch), child);
    }
    // A character no child list contains must miss in the index too.
    for (int probe = 0; probe < 8; ++probe) {
      const auto ch = rng.below(c.literal_count());
      std::uint32_t expect = kNoCode;
      for (const auto& [cc, cd] : d.children(code)) {
        if (cc == ch) expect = cd;
      }
      ASSERT_EQ(d.child(code, ch), expect);
    }
  }
}

TEST(DictionaryTest, FreezesAtCapacity) {
  Dictionary d(tiny_config());  // N=8, 2 literals -> 6 entries available
  std::uint32_t parent = 0;
  for (int i = 0; i < 6; ++i) {
    const auto c = d.add(parent, 1);
    ASSERT_NE(c, kNoCode);
    parent = c;
  }
  EXPECT_TRUE(d.full());
  EXPECT_EQ(d.next_code(), kNoCode);
  EXPECT_EQ(d.add(0, 0), kNoCode);  // frozen
  EXPECT_EQ(d.size(), 8u);
}

TEST(DictionaryTest, EntryWidthCapEnforced) {
  // entry_bits=3, char_bits=1 -> max 3 characters per entry.
  LzwConfig c{.dict_size = 64, .char_bits = 1, .entry_bits = 3};
  Dictionary d(c);
  const auto c2 = d.add(1, 1);            // len 2
  const auto c3 = d.add(c2, 1);           // len 3 == cap
  ASSERT_NE(c3, kNoCode);
  EXPECT_FALSE(d.extendable(c3));
  EXPECT_EQ(d.add(c3, 1), kNoCode);       // would exceed C_MDATA
  EXPECT_EQ(d.longest_entry_bits(), 3u);
}

// ---------------------------------------------------------------- Encoder worked examples

TEST(EncoderTest, HandComputedExample) {
  // Input 101010 with 1-bit characters:
  //   emit 1 (add 2="10"), emit 0 (add 3="01"), match "10" -> emit 2
  //   (add 4="101"), match "10" -> flush emit 2.
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("101010"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1, 0, 2, 2}));
  EXPECT_EQ(r.code_lengths, (std::vector<std::uint32_t>{1, 1, 2, 2}));
  EXPECT_EQ(r.original_bits, 6u);
  EXPECT_EQ(r.input_chars, 6u);
  EXPECT_EQ(r.compressed_bits(), 4u * 3u);  // C_E = 3
}

TEST(EncoderTest, KwKwKPattern) {
  // 11111 -> codes 1, 2, 2 where the first "2" is emitted before the decoder
  // has seen entry 2 defined (paper Fig. 4f special case).
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("11111"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1, 2, 2}));
  const Decoder dec(tiny_config());
  const auto d = dec.decode(r.codes, 5);
  EXPECT_EQ(d.bits.to_string(), "11111");
}

TEST(EncoderTest, DynamicXBindingFollowsDictionary) {
  // 1X1X1X: the X bits must be bound so the stream matches dictionary
  // entries; the result equals the fully-specified 101010 run above.
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("1X1X1X"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1, 0, 2, 2}));
  const auto rep = verify_roundtrip(TritVector::from_string("1X1X1X"), r);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(EncoderTest, AllXCompressesHard) {
  const Encoder enc(LzwConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63});
  TritVector v(7000);  // all X
  const auto r = enc.encode(v);
  EXPECT_GT(r.ratio_percent(), 80.0);
  EXPECT_TRUE(verify_roundtrip(v, r).ok);
}

TEST(EncoderTest, EmptyInput) {
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector{});
  EXPECT_TRUE(r.codes.empty());
  EXPECT_EQ(r.original_bits, 0u);
  const Decoder dec(tiny_config());
  EXPECT_EQ(dec.decode(r.codes, 0).bits.size(), 0u);
}

TEST(EncoderTest, SingleCharInput) {
  const Encoder enc(tiny_config());
  const auto r = enc.encode(TritVector::from_string("1"));
  EXPECT_EQ(r.codes, (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(verify_roundtrip(TritVector::from_string("1"), r).ok);
}

TEST(EncoderTest, PartialTailCharacterIsPadded) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const Encoder enc(c);
  const auto input = random_cube(100, 0.5, 99);  // 100 % 7 != 0
  const auto r = enc.encode(input);
  EXPECT_EQ(r.input_chars, (100u + 6u) / 7u);
  EXPECT_EQ(r.original_bits, 100u);
  EXPECT_TRUE(verify_roundtrip(input, r).ok);
}

TEST(EncoderTest, StreamPackingMatchesCodeCount) {
  const LzwConfig c{.dict_size = 2048, .char_bits = 7, .entry_bits = 63};
  const Encoder enc(c);
  const auto r = enc.encode(random_cube(5000, 0.8, 5));
  EXPECT_EQ(r.stream.bit_count(), r.codes.size() * c.code_bits());
}

TEST(EncoderTest, DegenerateConfigEmitsLiteralsOnly) {
  // N == 2^C_C: every code is a literal, no compression possible.
  const LzwConfig c{.dict_size = 256, .char_bits = 8, .entry_bits = 64};
  const Encoder enc(c);
  const auto input = random_cube(1024, 0.0, 3);
  const auto r = enc.encode(input);
  EXPECT_EQ(r.codes.size(), 1024u / 8u);
  EXPECT_NEAR(r.ratio_percent(), 0.0, 1e-9);
  EXPECT_TRUE(verify_roundtrip(input, r).ok);
}

TEST(EncoderTest, LongestEntryRespectsWidthCap) {
  const LzwConfig c{.dict_size = 4096, .char_bits = 1, .entry_bits = 5};
  const Encoder enc(c);
  const auto r = enc.encode(TritVector(4000, Trit::Zero));
  EXPECT_LE(r.longest_entry_bits, 5u);
  EXPECT_LE(r.longest_match_bits, 5u);
  EXPECT_TRUE(verify_roundtrip(TritVector(4000, Trit::Zero), r).ok);
}

TEST(EncoderTest, DictionaryFreezeKeepsLockstep) {
  // Tiny dictionary fills instantly; encoder and decoder must stay in sync
  // long after the freeze.
  const LzwConfig c{.dict_size = 16, .char_bits = 2, .entry_bits = 8};
  const Encoder enc(c);
  const auto input = random_cube(4000, 0.3, 17);
  const auto r = enc.encode(input);
  EXPECT_TRUE(verify_roundtrip(input, r).ok);
  EXPECT_EQ(r.dict_codes_used, 16u);
}

// ---------------------------------------------------------------- Decoder errors

TEST(DecoderTest, RejectsUndefinedCode) {
  const Decoder dec(tiny_config());
  EXPECT_THROW(dec.decode({1, 5}, 4), std::invalid_argument);
}

TEST(DecoderTest, RejectsLeadingNonLiteral) {
  const Decoder dec(tiny_config());
  EXPECT_THROW(dec.decode({2}, 2), std::invalid_argument);
}

TEST(DecoderTest, RejectsTruncatedStream) {
  const Decoder dec(tiny_config());
  EXPECT_THROW(dec.decode({1}, 10), std::invalid_argument);
}

TEST(DecoderTest, DictGrowsInLockstepWithEncoder) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(3000, 0.7, 11);
  const auto r = Encoder(c).encode(input);
  const auto d = Decoder(c).decode(r.codes, r.original_bits);
  // Decoder may learn exactly one extra entry from the final code.
  EXPECT_GE(d.dict_codes_used + 0u, r.dict_codes_used - 1u);
  EXPECT_LE(d.dict_codes_used, r.dict_codes_used + 1u);
}

// ---------------------------------------------------------------- X-assignment modes

TEST(XAssignTest, PrefillModesProduceCompatibleStreams) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(4000, 0.85, 23);
  for (const auto mode : {XAssignMode::ZeroFill, XAssignMode::OneFill,
                          XAssignMode::RepeatFill, XAssignMode::RandomFill}) {
    const auto rep = encode_and_verify(c, input, mode);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
}

TEST(XAssignTest, DynamicBeatsPrefillOnHighXInput) {
  // The paper's §5 observation: pre-processing the don't-cares yields only
  // 40–60 %, the dynamic sliding-window assignment is what reaches 70 %+.
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const Encoder enc(c);
  const auto input = random_cube(30000, 0.9, 31);
  const double dynamic = enc.encode(input, XAssignMode::Dynamic).ratio_percent();
  const double zero = enc.encode(input, XAssignMode::ZeroFill).ratio_percent();
  const double random = enc.encode(input, XAssignMode::RandomFill).ratio_percent();
  EXPECT_GT(dynamic, zero);
  EXPECT_GT(dynamic, random);
}

TEST(XAssignTest, FullySpecifiedInputIdenticalAcrossModes) {
  const LzwConfig c{.dict_size = 512, .char_bits = 4, .entry_bits = 32};
  const auto input = random_cube(2000, 0.0, 41);
  const Encoder enc(c);
  const auto base = enc.encode(input, XAssignMode::Dynamic);
  for (const auto mode : {XAssignMode::ZeroFill, XAssignMode::OneFill,
                          XAssignMode::RepeatFill, XAssignMode::RandomFill}) {
    EXPECT_EQ(enc.encode(input, mode).codes, base.codes);
  }
}

// ---------------------------------------------------------------- Tie-break policies

TEST(TiebreakTest, AllPoliciesRoundTrip) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(8000, 0.8, 53);
  for (const auto tb : {Tiebreak::First, Tiebreak::LowestChar,
                        Tiebreak::MostRecent, Tiebreak::MostChildren}) {
    const auto rep = encode_and_verify(c, input, XAssignMode::Dynamic, tb);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
}

// Regression: LowestChar must resolve a multi-way ambiguous match by the
// numerically smallest compatible *character*, tracked from the scanned
// child itself — not by insertion order or recency.
TEST(TiebreakTest, LowestCharPicksSmallestCompatibleCharacter) {
  // char_bits=2, N=8: literals 0..3, entries 4..7. The input
  //   00 10 00 01 00 XX
  // builds children of literal 0 in insertion order (2 -> code 4, 1 -> code
  // 6), then offers the fully ambiguous character XX. LowestChar must take
  // the ch=1 child (code 6) even though ch=2 was inserted first.
  const LzwConfig c{.dict_size = 8, .char_bits = 2, .entry_bits = 8};
  const auto input = TritVector::from_string("0010000100XX");

  const auto lowest = Encoder(c, Tiebreak::LowestChar).encode(input);
  EXPECT_EQ(lowest.codes, (std::vector<std::uint32_t>{0, 2, 0, 1, 6}));

  // Control: First keeps insertion order and lands on the ch=2 child.
  const auto first = Encoder(c, Tiebreak::First).encode(input);
  EXPECT_EQ(first.codes, (std::vector<std::uint32_t>{0, 2, 0, 1, 4}));

  // The reference encoder agrees.
  EXPECT_EQ(oracle::encode(c, Tiebreak::LowestChar, input).codes, lowest.codes);
}

// ---------------------------------------------------------------- Round-trip property sweep

struct RoundTripParam {
  std::uint32_t dict_size;
  std::uint32_t char_bits;
  std::uint32_t entry_bits;
  double x_density;
  std::size_t bits;
};

class RoundTripProperty : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RoundTripProperty, DecodedStreamCoversInput) {
  const auto p = GetParam();
  const LzwConfig c{.dict_size = p.dict_size, .char_bits = p.char_bits,
                    .entry_bits = p.entry_bits};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto input = random_cube(p.bits, p.x_density, seed * 7919);
    const auto rep = encode_and_verify(c, input);
    ASSERT_TRUE(rep.ok) << c.describe() << " density=" << p.x_density
                        << " seed=" << seed << ": " << rep.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, RoundTripProperty,
    ::testing::Values(
        RoundTripParam{8, 1, 8, 0.0, 500},
        RoundTripParam{8, 1, 8, 0.9, 500},
        RoundTripParam{64, 2, 16, 0.5, 2000},
        RoundTripParam{256, 4, 32, 0.7, 3000},
        RoundTripParam{1024, 7, 63, 0.0, 4000},
        RoundTripParam{1024, 7, 63, 0.5, 4000},
        RoundTripParam{1024, 7, 63, 0.93, 4000},
        RoundTripParam{2048, 7, 63, 0.85, 8000},
        RoundTripParam{1024, 7, 127, 0.9, 4000},
        RoundTripParam{1024, 7, 511, 0.9, 4000},
        RoundTripParam{1024, 10, 63, 0.8, 4000},   // degenerate: no codes
        RoundTripParam{8192, 13, 127, 0.8, 8000},  // exactly degenerate
        RoundTripParam{16, 2, 8, 0.6, 3000},       // instant freeze
        RoundTripParam{65536, 8, 255, 0.75, 20000}));

// Ratio must always be consistent with the raw counts it is derived from.
TEST(StatsTest, RatioFormula) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(7000, 0.8, 61);
  const auto r = Encoder(c).encode(input);
  const double expect =
      (1.0 - static_cast<double>(r.codes.size() * 10) / 7000.0) * 100.0;
  EXPECT_DOUBLE_EQ(r.ratio_percent(), expect);
}

// ---------------------------------------------------------------- telemetry
//
// The always-on hot-path telemetry must agree exactly with the encode it
// describes — these invariants hold for any input, so they run on the same
// random cubes the round-trip property tests use.

TEST(TelemetryTest, EncoderAccountingIsExact) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(7000, 0.8, 17);
  const auto r = Encoder(c).encode(input);
  const EncoderTelemetry& tel = r.telemetry;

  // One histogram sample per emitted code; lengths partition the input.
  EXPECT_EQ(tel.match_chars.snapshot().count, r.codes.size());
  EXPECT_EQ(tel.code_width_bits.snapshot().count, r.codes.size());
  EXPECT_EQ(tel.match_chars.snapshot().sum, r.input_chars);
  EXPECT_EQ(tel.code_width_bits.snapshot().sum, r.compressed_bits());

  // Every character after the first probes the dictionary exactly once, and
  // a probe either extends the match or ends one (the final emit is outside
  // the loop, so emissions-during-loop = codes - 1).
  EXPECT_EQ(tel.probes_fast + tel.probes_scan, r.input_chars - 1);
  EXPECT_EQ(tel.match_extensions, r.input_chars - r.codes.size());

  // Dynamic mode: every X bit of the input is bound exactly once — by a
  // match or by zeroing — and none were pre-filled.
  EXPECT_EQ(tel.x_bits_input, input.x_count());
  EXPECT_EQ(tel.x_bits_matched + tel.x_bits_zeroed, tel.x_bits_input);
  EXPECT_EQ(tel.x_bits_prefilled, 0u);

  // Dictionary growth matches the result's own accounting.
  EXPECT_EQ(tel.entries_added, r.dict_codes_used - c.literal_count());
}

TEST(TelemetryTest, PrefillModesReportPrefilledBits) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  // 4200 bits = 600 whole 7-bit characters: no X-padded tail character, so
  // the loop-side X counters must land on exactly zero.
  const auto input = random_cube(4200, 0.9, 23);
  const auto r = Encoder(c).encode(input, XAssignMode::ZeroFill);
  // The pre-fill resolved every X before the loop: the loop saw none.
  EXPECT_EQ(r.telemetry.x_bits_prefilled, input.x_count());
  EXPECT_EQ(r.telemetry.x_bits_input, 0u);
  EXPECT_EQ(r.telemetry.x_bits_matched, 0u);
}

TEST(TelemetryTest, ProbeSplitFollowsStrategyAndCareBits) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  // Fully specified input: the encoder answers every probe through the
  // O(1) hash path and never walks a child chain.
  const auto dense = random_cube(7000, 0.0, 31);
  const auto indexed = Encoder(c, Tiebreak::First).encode(dense);
  EXPECT_GT(indexed.telemetry.probes_fast, 0u);
  EXPECT_EQ(indexed.telemetry.probes_scan, 0u);

  // The reference encoder scans every probe but classifies it by the
  // character's care bits, so it reports the same split.
  const auto reference = oracle::encode(c, Tiebreak::First, dense);
  EXPECT_EQ(reference.telemetry.probes_fast, indexed.telemetry.probes_fast);
  EXPECT_EQ(reference.telemetry.probes_scan, 0u);

  // Identical output streams mean identical emission telemetry.
  EXPECT_EQ(reference.telemetry.match_chars.snapshot().sum,
            indexed.telemetry.match_chars.snapshot().sum);

  // An X-bearing character must take the tiebreak-aware scan.
  const auto sparse = random_cube(7000, 0.8, 37);
  const auto mixed = Encoder(c).encode(sparse);
  EXPECT_GT(mixed.telemetry.probes_scan, 0u);
}

TEST(TelemetryTest, DictionaryFullEventFiresOnceWhenFrozen) {
  // 16-code dictionary with 2-bit chars freezes almost immediately.
  const LzwConfig tiny{.dict_size = 16, .char_bits = 2, .entry_bits = 8};
  const auto input = random_cube(3000, 0.2, 41);
  const auto r = Encoder(tiny).encode(input);
  EXPECT_EQ(r.telemetry.dict_full_events, 1u);

  // A run that never fills the dictionary reports none.
  const LzwConfig big{.dict_size = 65536, .char_bits = 7, .entry_bits = 255};
  EXPECT_EQ(Encoder(big).encode(random_cube(2000, 0.5, 43)).telemetry
                .dict_full_events,
            0u);
}

TEST(TelemetryTest, DecoderMirrorsEncoderStream) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(7000, 0.8, 53);
  const auto encoded = Encoder(c).encode(input);
  const auto decoded = Decoder(c).decode(encoded.codes, encoded.original_bits);
  const DecoderTelemetry& tel = decoded.telemetry;

  EXPECT_EQ(tel.codes_consumed, encoded.codes.size());
  EXPECT_EQ(tel.expansion_chars.snapshot().count, encoded.codes.size());
  EXPECT_EQ(tel.expansion_chars.snapshot().sum, encoded.input_chars);
  // The decoder learns one entry per code after the first, minus freezes —
  // never more than the encoder's own dictionary growth plus the trailing
  // entry it alone creates.
  EXPECT_GE(tel.entries_added + 1, encoded.telemetry.entries_added);
}

TEST(TelemetryTest, DecoderCountsKwKwKCodes) {
  // An all-zeros run ("aaaa" over 2-bit chars) encodes as [a, 4, a] where 4
  // is the entry the decoder has not finished learning — the classic KwKwK
  // case.
  const LzwConfig c{.dict_size = 64, .char_bits = 2, .entry_bits = 16};
  TritVector v;
  for (int i = 0; i < 8; ++i) v.push_back(Trit::Zero);
  const auto encoded = Encoder(c).encode(v);
  const auto decoded = Decoder(c).decode(encoded.codes, encoded.original_bits);
  EXPECT_GT(decoded.telemetry.kwkwk_codes, 0u);
}

TEST(TelemetryTest, ToJsonIsDeterministic) {
  const LzwConfig c{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  const auto input = random_cube(4000, 0.85, 59);
  const auto a = Encoder(c).encode(input);
  const auto b = Encoder(c).encode(input);
  EXPECT_EQ(a.telemetry.to_json(), b.telemetry.to_json());
  EXPECT_NE(a.telemetry.to_json().find("\"probes_fast\""), std::string::npos);
}

}  // namespace
}  // namespace tdc::lzw
