#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bits/bitstream.h"
#include "bits/rng.h"
#include "bits/tritvector.h"
#include "hw/decompressor.h"
#include "lzw/decoder.h"
#include "lzw/dictionary.h"
#include "lzw/encoder.h"

// Differential test of the flat-expansion software decoder against the
// cycle model, which rebuilds every expansion with its own
// Dictionary::expand walk: on real, random and corrupt code streams the two
// must produce identical planes or the identical error kind and position.

namespace tdc {
namespace {

using bits::Rng;

/// A code stream shaped like real encoder output — defined codes, with a
/// KwKwK code (the entry being created) at probability `kwkwk` — that turns
/// hostile at probability `corrupt` per code (`frozen_corrupt` once the
/// dictionary is full) with an arbitrary value of the current width. A
/// lockstep dictionary tracks what a decoder knows, so the widths of
/// variable-width streams follow the real schedule up to the first
/// undefined code. A KwKwK code is itself corrupt where the real encoder
/// could not have emitted it, unless `legal_kwkwk` restricts it to where it
/// could. `frozen_at`, when given, receives the index of the first code read
/// with a full dictionary (`codes` if it never fills).
lzw::EncodeResult synthetic_stream(const lzw::LzwConfig& config, Rng& rng,
                                   std::size_t codes, double kwkwk,
                                   double corrupt, double frozen_corrupt = 0.0,
                                   bool legal_kwkwk = false,
                                   std::size_t* frozen_at = nullptr) {
  lzw::EncodeResult out;
  out.config = config;
  lzw::Dictionary dict(config);
  std::uint32_t prev = lzw::kNoCode;
  std::uint64_t chars = 0;
  bool valid = true;
  if (frozen_at != nullptr) *frozen_at = codes;
  for (std::size_t i = 0; i < codes; ++i) {
    if (frozen_at != nullptr && *frozen_at == codes && dict.full()) *frozen_at = i;
    const std::uint32_t width =
        config.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(dict.size())),
                       config.code_bits())
            : config.code_bits();
    std::uint32_t code = 0;
    if (!valid || rng.chance(dict.full() ? frozen_corrupt : corrupt)) {
      code = static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << width));
    } else if (prev != lzw::kNoCode && !dict.full() &&
               (!legal_kwkwk ||
                (dict.extendable(prev) &&
                 dict.child(prev, dict.first_char(prev)) == lzw::kNoCode)) &&
               rng.chance(kwkwk)) {
      code = dict.size();
    } else {
      code = static_cast<std::uint32_t>(rng.below(dict.size()));
    }
    out.codes.push_back(code);
    out.stream.write(code, width);
    if (!valid) continue;
    std::uint32_t first = 0;
    if (dict.defined(code)) {
      first = dict.first_char(code);
    } else if (prev != lzw::kNoCode && code == dict.next_code() &&
               dict.extendable(prev) &&
               dict.child(prev, dict.first_char(prev)) == lzw::kNoCode) {
      first = dict.first_char(prev);
    } else {
      valid = false;  // both decoders must stop here
      continue;
    }
    if (prev != lzw::kNoCode && dict.child(prev, first) == lzw::kNoCode) {
      dict.add(prev, first);
    }
    chars += dict.length(code);
    prev = code;
  }
  out.original_bits = chars * config.char_bits;
  return out;
}

/// Re-targets `enc` at a different original length: exact, trimmed by part
/// of a character (encoder padding), much shorter (silent truncation) or
/// longer than the codes can fill (StreamTooShort).
void vary_original_bits(lzw::EncodeResult& enc, Rng& rng) {
  const std::uint64_t full = enc.original_bits;
  switch (rng.below(4)) {
    case 0:
      break;
    case 1:
      enc.original_bits = full - std::min<std::uint64_t>(full, rng.below(enc.config.char_bits));
      break;
    case 2:
      enc.original_bits = rng.below(full + 1);
      break;
    default:
      enc.original_bits = full + 1 + rng.below(100);
      break;
  }
}

/// Drops the last few payload bits now and then, so a code is cut short.
void maybe_truncate(lzw::EncodeResult& enc, Rng& rng) {
  if (!rng.chance(0.15) || enc.stream.bit_count() == 0) return;
  const std::size_t bits = enc.stream.bit_count();
  const std::size_t keep = bits - 1 - rng.below(std::min<std::size_t>(bits, 20));
  enc.stream = bits::BitWriter::from_bytes(enc.stream.bytes().data(), keep);
}

std::string where(const lzw::LzwConfig& c, int round) {
  return c.describe() + (c.variable_width ? " var" : " fixed") + " round " +
         std::to_string(round);
}

/// Decodes `enc` with the software decoder (stream and, when `enc.codes`
/// are the payload's codes, code-list entry points) and the cycle model;
/// all must agree.
/// Outcome counts, so a test can prove its streams reach every branch.
using Tally = std::map<std::string, int>;

void expect_agreement(const lzw::EncodeResult& enc, const std::string& ctx,
                      Tally& tally, bool codes_match_payload = true) {
  SCOPED_TRACE(ctx);
  hw::HwConfig hc;
  hc.lzw = enc.config;
  const Result<hw::HwRunResult> model = hw::DecompressorModel(hc).try_run(enc);
  bits::BitReader reader(enc.stream);
  const Result<lzw::DecodeResult> flat = lzw::Decoder(enc.config).try_decode_stream(
      reader, enc.codes.size(), enc.original_bits);
  ASSERT_EQ(flat.ok(), model.ok())
      << (flat.ok() ? model.error().describe() : flat.error().describe());
  if (flat.ok()) {
    ++tally["ok"];
    tally["kwkwk"] += static_cast<int>(flat.value().telemetry.kwkwk_codes);
    const std::uint64_t decoded_bits =
        flat.value().telemetry.expansion_chars.snapshot().sum * enc.config.char_bits;
    if (enc.original_bits + enc.config.char_bits <= decoded_bits) {
      ++tally["silently truncated"];
    }
    ASSERT_EQ(flat.value().bits, model.value().scan_bits);
    ASSERT_EQ(flat.value().bits.size(), enc.original_bits);
    ASSERT_TRUE(flat.value().bits.fully_specified());
  } else {
    ++tally[to_string(flat.error().kind)];
    ASSERT_EQ(flat.error().kind, model.error().kind) << flat.error().describe();
    ASSERT_EQ(flat.error().code_index, model.error().code_index);
    ASSERT_EQ(flat.error().bit_offset, model.error().bit_offset);
  }
  // The code-list form decodes the same codes without a payload; it can
  // only differ where the payload itself was cut short.
  if (!codes_match_payload) return;
  if (!flat.ok() && flat.error().kind == ErrorKind::CodeStreamTruncated) return;
  const Result<lzw::DecodeResult> listed =
      lzw::Decoder(enc.config).try_decode(enc.codes, enc.original_bits);
  ASSERT_EQ(listed.ok(), flat.ok());
  if (listed.ok()) {
    ASSERT_EQ(listed.value().bits, flat.value().bits);
    ASSERT_EQ(listed.value().dict_codes_used, flat.value().dict_codes_used);
  } else {
    ASSERT_EQ(listed.error().kind, flat.error().kind);
    ASSERT_EQ(listed.error().code_index, flat.error().code_index);
  }
}

TEST(DecoderDifferentialTest, FlatDecoderMatchesCycleModelEverywhere) {
  Rng rng(1313);
  Tally tally;
  for (std::uint32_t cc = 1; cc <= 16; ++cc) {
    for (const std::uint32_t mdata : {15u, 63u, 127u, 511u}) {
      if (mdata < cc) continue;
      for (const bool variable : {false, true}) {
        // A non-power-of-two size that freezes early, and (for small
        // characters) a roomier power of two.
        std::vector<std::uint32_t> sizes = {(1u << cc) + 37};
        if (cc <= 10) sizes.push_back(1u << (cc + 2));
        for (const std::uint32_t dict_size : sizes) {
          const lzw::LzwConfig config{.dict_size = dict_size,
                                      .char_bits = cc,
                                      .entry_bits = mdata,
                                      .variable_width = variable};
          const int rounds = cc <= 10 ? 12 : 3;
          for (int round = 0; round < rounds; ++round) {
            const std::size_t codes = 1 + rng.below(cc <= 10 ? 600 : 150);
            // Every third round is KwKwK-heavy; a quarter carry corruption.
            const double kwkwk = round % 3 == 0 ? 0.6 : 0.05;
            const double corrupt = round % 4 == 1 ? 0.01 : 0.0;
            lzw::EncodeResult enc = synthetic_stream(config, rng, codes, kwkwk, corrupt);
            vary_original_bits(enc, rng);
            maybe_truncate(enc, rng);
            expect_agreement(enc, where(config, round), tally);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // The generator must reach every outcome, KwKwK codes included.
  for (const char* outcome : {"ok", "kwkwk", "silently truncated", "UndefinedCode",
                              "StreamTooShort", "CodeStreamTruncated"}) {
    EXPECT_GT(tally[outcome], 0) << outcome;
  }
}

TEST(DecoderDifferentialTest, EncoderOutputMatchesCycleModel) {
  Rng rng(1314);
  Tally tally;
  for (const std::uint32_t cc : {1u, 4u, 7u, 8u, 12u}) {
    for (const std::uint32_t mdata : {15u, 63u, 127u, 511u}) {
      if (mdata < cc) continue;
      for (const bool variable : {false, true}) {
        const lzw::LzwConfig config{.dict_size = std::max(1024u, 2u << cc),
                                    .char_bits = cc,
                                    .entry_bits = mdata,
                                    .variable_width = variable};
        bits::TritVector cube(1500 + rng.below(3000));
        for (std::size_t i = 0; i < cube.size(); ++i) {
          if (!rng.chance(0.7)) cube.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
        }
        const lzw::EncodeResult enc = lzw::Encoder(config).encode(cube);
        expect_agreement(enc, where(config, 0), tally);
        if (HasFatalFailure()) return;
        bits::BitReader reader(enc.stream);
        const lzw::DecodeResult clean = lzw::Decoder(config).decode_stream(
            reader, enc.codes.size(), enc.original_bits);
        ASSERT_TRUE(cube.covered_by(clean.bits)) << where(config, 0);
        // Damaged copies of a real stream: flipped payload bits.
        for (int flip = 0; flip < 4; ++flip) {
          std::vector<std::uint8_t> bytes = enc.stream.bytes();
          const std::size_t bit = rng.below(enc.stream.bit_count());
          bytes[bit / 8] = static_cast<std::uint8_t>(bytes[bit / 8] ^ (0x80u >> (bit % 8)));
          lzw::EncodeResult bad = enc;
          bad.stream = bits::BitWriter::from_bytes(bytes.data(), enc.stream.bit_count());
          // bad.codes still lists the undamaged codes: compare the payload
          // decoders only.
          expect_agreement(bad, where(config, flip + 1) + " flipped bit " +
                                    std::to_string(bit),
                           tally, /*codes_match_payload=*/false);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// Real streams spend most of their codes against a frozen dictionary, where
// the decoder skips the duplicate-child probe. Long streams that freeze
// early, with corrupt codes only after the freeze: a corrupt code past N
// must fail at the same code and bit in both decoders, and one below N must
// decode to the same planes.
TEST(DecoderDifferentialTest, FrozenStreamsWithCorruptionAfterTheFreeze) {
  Rng rng(1315);
  Tally tally;
  int late_errors = 0;
  for (const std::uint32_t cc : {1u, 2u, 4u, 7u, 9u}) {
    for (const std::uint32_t mdata : {15u, 63u}) {
      if (mdata < 2 * cc) continue;
      for (const bool variable : {false, true}) {
        // A non-power-of-two size, so that C_E-bit values past N exist.
        const lzw::LzwConfig config{.dict_size = (1u << cc) + 37,
                                    .char_bits = cc,
                                    .entry_bits = mdata,
                                    .variable_width = variable};
        for (int round = 0; round < 8; ++round) {
          std::size_t frozen_at = 0;
          lzw::EncodeResult enc =
              synthetic_stream(config, rng, 1500, round % 2 == 0 ? 0.3 : 0.05,
                               /*corrupt=*/0.0, /*frozen_corrupt=*/0.01,
                               /*legal_kwkwk=*/true, &frozen_at);
          ASSERT_LT(frozen_at, enc.codes.size()) << where(config, round);
          if (round % 3 == 2) vary_original_bits(enc, rng);
          expect_agreement(enc, where(config, round), tally);
          if (HasFatalFailure()) return;
          hw::HwConfig hc;
          hc.lzw = enc.config;
          const Result<hw::HwRunResult> model = hw::DecompressorModel(hc).try_run(enc);
          if (!model.ok() && model.error().code_index >= static_cast<std::int64_t>(frozen_at)) {
            ++late_errors;
          }
        }
      }
    }
  }
  EXPECT_GT(late_errors, 0);
  for (const char* outcome : {"ok", "kwkwk", "UndefinedCode"}) {
    EXPECT_GT(tally[outcome], 0) << outcome;
  }
}

}  // namespace
}  // namespace tdc
