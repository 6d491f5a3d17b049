#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bits/bitstream.h"
#include "bits/rng.h"
#include "bits/simd.h"
#include "bits/trit.h"
#include "bits/tritvector.h"
#include "bits/wordops.h"

namespace tdc::bits {
namespace {

// ---------------------------------------------------------------- Trit

TEST(TritTest, CharRoundTrip) {
  EXPECT_EQ(to_char(Trit::Zero), '0');
  EXPECT_EQ(to_char(Trit::One), '1');
  EXPECT_EQ(to_char(Trit::X), 'X');
  EXPECT_EQ(trit_from_char('0'), Trit::Zero);
  EXPECT_EQ(trit_from_char('1'), Trit::One);
  EXPECT_EQ(trit_from_char('X'), Trit::X);
  EXPECT_EQ(trit_from_char('x'), Trit::X);
  EXPECT_EQ(trit_from_char('-'), Trit::X);
}

TEST(TritTest, ValidChars) {
  EXPECT_TRUE(is_trit_char('0'));
  EXPECT_TRUE(is_trit_char('1'));
  EXPECT_TRUE(is_trit_char('x'));
  EXPECT_TRUE(is_trit_char('X'));
  EXPECT_TRUE(is_trit_char('-'));
  EXPECT_FALSE(is_trit_char('2'));
  EXPECT_FALSE(is_trit_char(' '));
}

TEST(TritTest, Compatibility) {
  EXPECT_TRUE(compatible(Trit::Zero, Trit::Zero));
  EXPECT_TRUE(compatible(Trit::One, Trit::One));
  EXPECT_FALSE(compatible(Trit::Zero, Trit::One));
  EXPECT_TRUE(compatible(Trit::X, Trit::Zero));
  EXPECT_TRUE(compatible(Trit::One, Trit::X));
  EXPECT_TRUE(compatible(Trit::X, Trit::X));
}

TEST(TritTest, Merge) {
  EXPECT_EQ(merge(Trit::X, Trit::One), Trit::One);
  EXPECT_EQ(merge(Trit::Zero, Trit::X), Trit::Zero);
  EXPECT_EQ(merge(Trit::X, Trit::X), Trit::X);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(RngTest, RealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------- BitWriter / BitReader

TEST(BitstreamTest, SingleBits) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  EXPECT_EQ(w.bit_count(), 3u);
  EXPECT_TRUE(w.bit_at(0));
  EXPECT_FALSE(w.bit_at(1));
  EXPECT_TRUE(w.bit_at(2));
}

TEST(BitstreamTest, MsbFirstByteLayout) {
  BitWriter w;
  w.write(0b10110001, 8);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b10110001);
}

TEST(BitstreamTest, UnalignedValuesRoundTrip) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0b0110110, 7);
  w.write(0x3FF, 10);
  w.write(1, 1);
  BitReader r(w);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(7), 0b0110110u);
  EXPECT_EQ(r.read(10), 0x3FFu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitstreamTest, WideValues) {
  BitWriter w;
  const std::uint64_t v = 0xdeadbeefcafef00dULL;
  w.write(v, 64);
  BitReader r(w);
  EXPECT_EQ(r.read(64), v);
}

TEST(BitstreamTest, RemainingAndPosition) {
  BitWriter w;
  w.write(0xab, 8);
  BitReader r(w);
  EXPECT_EQ(r.remaining(), 8u);
  r.read(3);
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.remaining(), 5u);
}

TEST(BitstreamTest, RandomizedRoundTrip) {
  Rng rng(123);
  BitWriter w;
  std::vector<std::pair<std::uint64_t, unsigned>> items;
  for (int i = 0; i < 2000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.below(32));
    const std::uint64_t value = rng.next_u64() & ((width == 64) ? ~0ULL : ((1ULL << width) - 1));
    items.emplace_back(value, width);
    w.write(value, width);
  }
  BitReader r(w);
  for (const auto& [value, width] : items) {
    ASSERT_EQ(r.read(width), value);
  }
  EXPECT_TRUE(r.exhausted());
}

// ---------------------------------------------------------------- TritVector

TEST(TritVectorTest, ConstructFilled) {
  TritVector v(130, Trit::One);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_TRUE(v.fully_specified());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.get(i), Trit::One);
}

TEST(TritVectorTest, ConstructDefaultAllX) {
  TritVector v(70);
  EXPECT_EQ(v.care_count(), 0u);
  EXPECT_EQ(v.x_count(), 70u);
  EXPECT_DOUBLE_EQ(v.x_density(), 1.0);
}

TEST(TritVectorTest, FromStringAndBack) {
  const std::string s = "01XX10x-01";
  const TritVector v = TritVector::from_string(s);
  EXPECT_EQ(v.to_string(), "01XX10XX01");
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.care_count(), 6u);
}

TEST(TritVectorTest, FromStringRejectsBadChars) {
  EXPECT_THROW(TritVector::from_string("012"), std::invalid_argument);
}

TEST(TritVectorTest, SetGetAcrossWordBoundary) {
  TritVector v(200);
  v.set(63, Trit::One);
  v.set(64, Trit::Zero);
  v.set(127, Trit::One);
  v.set(128, Trit::X);
  EXPECT_EQ(v.get(63), Trit::One);
  EXPECT_EQ(v.get(64), Trit::Zero);
  EXPECT_EQ(v.get(127), Trit::One);
  EXPECT_EQ(v.get(128), Trit::X);
}

TEST(TritVectorTest, SetXClearsValuePlane) {
  TritVector v(4, Trit::One);
  v.set(2, Trit::X);
  // Normal form: an X position must not retain a stale value bit.
  EXPECT_EQ(v.word(0, 4), 0b1101u);
}

TEST(TritVectorTest, PushBackAndAppend) {
  TritVector a;
  a.push_back(Trit::One);
  a.push_back(Trit::X);
  TritVector b = TritVector::from_string("01");
  a.append(b);
  EXPECT_EQ(a.to_string(), "1X01");
}

TEST(TritVectorTest, CompatibilityPredicate) {
  const auto a = TritVector::from_string("0X1X");
  const auto b = TritVector::from_string("011X");
  const auto c = TritVector::from_string("1X1X");
  EXPECT_TRUE(a.compatible_with(b));
  EXPECT_TRUE(b.compatible_with(a));
  EXPECT_FALSE(a.compatible_with(c));
  EXPECT_FALSE(a.compatible_with(TritVector::from_string("0X1")));  // size
}

TEST(TritVectorTest, CoveredBy) {
  const auto cube = TritVector::from_string("0X1X");
  const auto full = TritVector::from_string("0011");
  EXPECT_TRUE(cube.covered_by(full));
  EXPECT_FALSE(full.covered_by(cube));  // full specifies bits cube lacks
  EXPECT_FALSE(cube.covered_by(TritVector::from_string("0001")));
}

TEST(TritVectorTest, MergeIn) {
  auto a = TritVector::from_string("0XX1");
  const auto b = TritVector::from_string("0X01");
  a.merge_in(b);
  EXPECT_EQ(a.to_string(), "0X01");
}

TEST(TritVectorTest, Slice) {
  const auto v = TritVector::from_string("01XX10");
  EXPECT_EQ(v.slice(1, 4).to_string(), "1XX1");
  EXPECT_EQ(v.slice(0, 0).size(), 0u);
}

TEST(TritVectorTest, FilledModes) {
  const auto v = TritVector::from_string("0XX1");
  EXPECT_EQ(v.filled(Trit::Zero).to_string(), "0001");
  EXPECT_EQ(v.filled(Trit::One).to_string(), "0111");
  EXPECT_EQ(v.filled_repeat_last().to_string(), "0001");
  EXPECT_EQ(TritVector::from_string("X1XX0X").filled_repeat_last().to_string(),
            "011100");
}

TEST(TritVectorTest, FilledRandomIsSpecifiedAndCompatible) {
  Rng rng(77);
  TritVector v(500);
  for (std::size_t i = 0; i < v.size(); i += 3) v.set(i, Trit::One);
  const TritVector f = v.filled_random(rng);
  EXPECT_TRUE(f.fully_specified());
  EXPECT_TRUE(v.covered_by(f));
}

TEST(TritVectorTest, FilledPreservesTailInvariant) {
  // filled() must not set bits past size(), or word-parallel ops would break.
  TritVector v(65);
  const TritVector f = v.filled(Trit::One);
  TritVector g = f;
  g.push_back(Trit::X);
  EXPECT_EQ(g.get(65), Trit::X);
  EXPECT_EQ(f.care_count(), 65u);
}

TEST(TritVectorTest, WordAndCareWord) {
  const auto v = TritVector::from_string("1X01");
  EXPECT_EQ(v.word(0, 4), 0b1001u);       // X reads 0
  EXPECT_EQ(v.care_word(0, 4), 0b1011u);  // X position unmasked
  // Reading past the end behaves as implicit X padding.
  EXPECT_EQ(v.word(2, 4), 0b0100u);
  EXPECT_EQ(v.care_word(2, 4), 0b1100u);
}

TEST(TritVectorTest, EqualityIsExact) {
  const auto a = TritVector::from_string("0X1");
  const auto b = TritVector::from_string("0X1");
  const auto c = TritVector::from_string("001");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // X != 0 even though compatible
}

TEST(TritVectorTest, DensityStats) {
  const auto v = TritVector::from_string("XX01XXXX10");
  EXPECT_EQ(v.care_count(), 4u);
  EXPECT_EQ(v.x_count(), 6u);
  EXPECT_DOUBLE_EQ(v.x_density(), 0.6);
}

// ---------------------------------------------------------------- CharCursor

TEST(CharCursorTest, MatchesWordAndCareWord) {
  const auto v = TritVector::from_string("1X01X0");
  CharCursor cur(v, 4);
  EXPECT_EQ(cur.char_count(), 2u);  // 6 trits -> 2 chars, tail X-padded
  const auto c0 = cur.next();
  EXPECT_EQ(c0.value, v.word(0, 4));
  EXPECT_EQ(c0.care, v.care_word(0, 4));
  const auto c1 = cur.next();
  EXPECT_EQ(c1.value, v.word(4, 4));
  EXPECT_EQ(c1.care, v.care_word(4, 4));
  EXPECT_TRUE(cur.done());
}

TEST(CharCursorTest, RandomAccessDoesNotMoveCursor) {
  const auto v = TritVector::from_string("01X110X0");
  CharCursor cur(v, 2);
  EXPECT_EQ(cur.at(3).value, v.word(6, 2));
  EXPECT_EQ(cur.index(), 0u);
  cur.next();
  EXPECT_EQ(cur.index(), 1u);
}

// Property: across sizes, widths, and densities — including characters
// straddling 64-bit word boundaries and X-padded tails — the cursor yields
// exactly the word()/care_word() slices.
TEST(CharCursorTest, PropertyMatchesSliceReference) {
  Rng rng(99);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 300u, 1003u}) {
    for (const std::uint32_t cc : {1u, 2u, 5u, 7u, 13u, 16u}) {
      TritVector v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v.set(i, static_cast<Trit>(rng.below(3)));
      }
      CharCursor cur(v, cc);
      EXPECT_EQ(cur.char_count(), (n + cc - 1) / cc);
      for (std::uint64_t k = 0; !cur.done(); ++k) {
        const auto c = cur.next();
        ASSERT_EQ(c.value, v.word(k * cc, cc)) << "n=" << n << " cc=" << cc
                                               << " k=" << k;
        ASSERT_EQ(c.care, v.care_word(k * cc, cc)) << "n=" << n << " cc=" << cc
                                                   << " k=" << k;
      }
    }
  }
}

// Property: random set/get sequences behave like a reference vector.
TEST(TritVectorTest, PropertyMatchesReferenceModel) {
  Rng rng(2024);
  TritVector v(300);
  std::vector<Trit> ref(300, Trit::X);
  for (int step = 0; step < 5000; ++step) {
    const std::size_t i = rng.below(300);
    const Trit t = static_cast<Trit>(rng.below(3));
    v.set(i, t);
    ref[i] = t;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(v.get(i), ref[i]);
  std::size_t care = 0;
  for (const Trit t : ref) care += is_care(t);
  EXPECT_EQ(v.care_count(), care);
}

// ---------------------------------------------------------------- wordops

// SWAR bit reversal against the per-bit reference it replaced.
TEST(WordOpsTest, ReverseBits64MatchesPerBitReference) {
  const auto naive = [](std::uint64_t v) {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < 64; ++i) {
      r = (r << 1) | ((v >> i) & 1u);
    }
    return r;
  };
  EXPECT_EQ(reverse_bits64(0), 0u);
  EXPECT_EQ(reverse_bits64(~0ULL), ~0ULL);
  EXPECT_EQ(reverse_bits64(1), 1ULL << 63);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_u64();
    ASSERT_EQ(reverse_bits64(v), naive(v)) << "v=" << v;
  }
}

TEST(WordOpsTest, ReverseLowBitsMatchesPerBitReference) {
  const auto naive = [](std::uint64_t v, unsigned len) {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < len; ++i) {
      r = (r << 1) | ((v >> i) & 1u);
    }
    return r;
  };
  Rng rng(78);
  for (unsigned len = 1; len <= 64; ++len) {
    for (int i = 0; i < 200; ++i) {
      // Garbage above the field must not leak into the result.
      const std::uint64_t raw = rng.next_u64();
      ASSERT_EQ(reverse_low_bits(raw, len), naive(raw & low_mask(len), len))
          << "len=" << len;
    }
  }
}

TEST(WordOpsTest, LowMaskEdges) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(63), ~0ULL >> 1);
  EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(WordOpsTest, Byteswap64) {
  EXPECT_EQ(byteswap64(0x0102030405060708ULL), 0x0807060504030201ULL);
  EXPECT_EQ(byteswap64(byteswap64(0xDEADBEEFCAFEF00DULL)),
            0xDEADBEEFCAFEF00DULL);
}

// ---------------------------------------------------------- batched writer

// Property: the word-staging BitWriter is bit-identical to a bit-serial
// reference under random width sequences — including bytes() flushes
// interleaved mid-stream, which force the ragged (non-64-aligned) spill
// paths the steady state never hits.
TEST(BitstreamTest, PropertyBatchedWriterMatchesBitSerialReference) {
  Rng rng(501);
  for (int round = 0; round < 50; ++round) {
    BitWriter batched;
    BitWriter reference;
    std::vector<std::pair<std::uint64_t, unsigned>> writes;
    for (int w = 0; w < 200; ++w) {
      const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
      const std::uint64_t value = rng.next_u64() & low_mask(width);
      batched.write(value, width);
      for (unsigned b = width; b-- > 0;) {
        reference.write_bit(((value >> b) & 1u) != 0);
      }
      if (rng.chance(0.1)) {
        // Mid-stream observation drains the staging word at a position that
        // is rarely byte- (let alone word-) aligned.
        ASSERT_EQ(batched.bytes(), reference.bytes()) << "round " << round;
      }
    }
    ASSERT_EQ(batched.bit_count(), reference.bit_count());
    ASSERT_EQ(batched.bytes(), reference.bytes()) << "round " << round;
    for (std::size_t i = 0; i < batched.bit_count(); i += 17) {
      ASSERT_EQ(batched.bit_at(i), reference.bit_at(i));
    }
  }
}

// Property: chunked BitReader::read equals a read_bit-composed reference.
TEST(BitstreamTest, PropertyChunkedReadMatchesBitSerialReference) {
  Rng rng(502);
  BitWriter w;
  for (int i = 0; i < 500; ++i) w.write_bit(rng.bit());
  for (int round = 0; round < 200; ++round) {
    BitReader chunked(w);
    BitReader serial(w);
    while (chunked.remaining() > 0) {
      const unsigned width = std::min<unsigned>(
          1 + static_cast<unsigned>(rng.below(64)),
          static_cast<unsigned>(chunked.remaining()));
      std::uint64_t expect = 0;
      for (unsigned b = 0; b < width; ++b) {
        expect = (expect << 1) | (serial.read_bit() ? 1u : 0u);
      }
      ASSERT_EQ(chunked.read(width), expect);
      ASSERT_EQ(chunked.position(), serial.position());
    }
  }
}

// ------------------------------------------------------------ SIMD kernels

// Property: whatever active_kernel() dispatched to (avx2 on capable hosts,
// scalar otherwise) is bit-identical to the always-compiled scalar
// reference, on lengths that cover every remainder of the 4-word vector
// stride, with adversarial all-X / all-care planes mixed in.
TEST(SimdKernelsTest, PropertyDispatchedMatchesScalarReference) {
  Rng rng(701);
  SCOPED_TRACE(std::string("active kernel: ") + simd::active_kernel());
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 33u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::uint64_t> ca(n), va(n), cb(n), vb(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(4)) {
          case 0: ca[i] = 0; break;            // all-X word
          case 1: ca[i] = ~0ULL; break;        // fully specified word
          default: ca[i] = rng.next_u64(); break;
        }
        cb[i] = rng.chance(0.25) ? ca[i] : rng.next_u64();
        va[i] = rng.next_u64() & ca[i];
        vb[i] = rng.chance(0.25) ? va[i] & cb[i] : rng.next_u64() & cb[i];
      }
      ASSERT_EQ(simd::popcount_words(ca.data(), n),
                simd::detail::popcount_words_scalar(ca.data(), n));
      ASSERT_EQ(simd::planes_conflict(ca.data(), va.data(), cb.data(),
                                      vb.data(), n),
                simd::detail::planes_conflict_scalar(ca.data(), va.data(),
                                                     cb.data(), vb.data(), n));
      ASSERT_EQ(simd::planes_uncovered(ca.data(), va.data(), cb.data(),
                                       vb.data(), n),
                simd::detail::planes_uncovered_scalar(
                    ca.data(), va.data(), cb.data(), vb.data(), n));
      std::vector<std::uint64_t> ca2 = ca, va2 = va;
      simd::planes_merge(ca.data(), va.data(), cb.data(), vb.data(), n);
      simd::detail::planes_merge_scalar(ca2.data(), va2.data(), cb.data(),
                                        vb.data(), n);
      ASSERT_EQ(ca, ca2);
      ASSERT_EQ(va, va2);
    }
  }
  // Text -> planes: every length 0..300 (so the AVX2 body, which takes
  // whole 64-character words, meets every tail length), all-valid text and
  // then one bad character at each offset mod 64.
  const std::string trit_chars = "01xX-";
  const std::string bad_chars = std::string("2Yz \r\t#") + '\0' + '\xff';
  for (std::size_t n = 0; n <= 300; ++n) {
    std::string text(n, '0');
    for (char& ch : text) ch = trit_chars[rng.below(trit_chars.size())];
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> care(words, ~0ULL), value(words, ~0ULL);
    std::vector<std::uint64_t> care_ref(words, ~0ULL), value_ref(words, ~0ULL);
    ASSERT_TRUE(simd::pack_trit_chars(text.data(), n, care.data(), value.data()));
    ASSERT_TRUE(simd::detail::pack_trit_chars_scalar(text.data(), n,
                                                     care_ref.data(),
                                                     value_ref.data()));
    ASSERT_EQ(care, care_ref) << "n=" << n;
    ASSERT_EQ(value, value_ref) << "n=" << n;
    // Independent per-character reference, normal form past n included.
    TritVector expect(n);
    for (std::size_t i = 0; i < n; ++i) expect.set(i, trit_from_char(text[i]));
    ASSERT_EQ(TritVector::from_string(text), expect) << "n=" << n;
    for (std::size_t residue = 0; residue < 64 && residue < n; ++residue) {
      std::string broken = text;
      const std::size_t at = residue + 64 * rng.below((n - residue + 63) / 64);
      broken[at] = bad_chars[rng.below(bad_chars.size())];
      ASSERT_FALSE(simd::pack_trit_chars(broken.data(), n, care.data(),
                                         value.data()))
          << "n=" << n << " at=" << at;
      ASSERT_FALSE(simd::detail::pack_trit_chars_scalar(
          broken.data(), n, care_ref.data(), value_ref.data()))
          << "n=" << n << " at=" << at;
    }
  }
}

TEST(TritVectorTest, FromStringNamesTheFirstBadCharacter) {
  for (const std::size_t at : {0u, 1u, 63u, 64u, 65u, 130u}) {
    std::string text(200, 'X');
    text[at] = 'q';
    text[at + 5] = 'z';
    try {
      (void)TritVector::from_string(text);
      FAIL() << "accepted a bad character at " << at;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "TritVector::from_string: bad character 'q'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TritVectorTest, PropertyToStringFromStringRoundTrips) {
  Rng rng(703);
  for (const std::size_t n : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 127u, 128u,
                              129u, 200u, 1000u}) {
    TritVector v(n);
    for (std::size_t i = 0; i < n; ++i) v.set(i, static_cast<Trit>(rng.below(3)));
    const std::string text = v.to_string();
    ASSERT_EQ(text.size(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(text[i], to_char(v.get(i))) << i;
    ASSERT_EQ(TritVector::from_string(text), v) << "n=" << n;
  }
}

TEST(TritVectorTest, PropertyAppendMatchesPushBackAtEveryAlignment) {
  Rng rng(704);
  const auto random_vector = [&rng](std::size_t n) {
    TritVector v(n);
    for (std::size_t i = 0; i < n; ++i) v.set(i, static_cast<Trit>(rng.below(3)));
    return v;
  };
  for (std::size_t align = 0; align < 64; ++align) {
    for (const std::size_t head_words : {0u, 1u, 2u}) {
      for (const std::size_t tail : {0u, 1u, 5u, 63u, 64u, 65u, 130u, 200u}) {
        const TritVector a = random_vector(64 * head_words + align);
        const TritVector b = random_vector(tail);
        TritVector oracle = a;
        for (std::size_t i = 0; i < b.size(); ++i) oracle.push_back(b.get(i));
        TritVector got = a;
        got.append(b);
        // operator== compares whole words, so this also pins normal form.
        ASSERT_EQ(got, oracle) << "align=" << align << " tail=" << tail;
        ASSERT_EQ(got.care_count(), a.care_count() + b.care_count());
      }
    }
    TritVector self = random_vector(align);
    TritVector doubled = self;
    for (std::size_t i = 0; i < self.size(); ++i) doubled.push_back(self.get(i));
    self.append(self);
    ASSERT_EQ(self, doubled) << "self-append, align=" << align;
  }
}

TEST(TritVectorTest, FromValueWordsIsFullySpecifiedInNormalForm) {
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    std::vector<std::uint64_t> words((n + 63) / 64, 0xA5A5A5A5A5A5A5A5ULL);
    const TritVector v = TritVector::from_value_words(words, n);
    ASSERT_EQ(v.size(), n);
    ASSERT_TRUE(v.fully_specified());
    TritVector expect(n, Trit::Zero);
    for (std::size_t i = 0; i < n; ++i) {
      if ((words[i / 64] >> (i % 64)) & 1u) expect.set(i, Trit::One);
    }
    ASSERT_EQ(v, expect) << "n=" << n;
  }
}

// The CharCursor property test above compares against word()/care_word(),
// which now share the SWAR extract path — this one pins both against an
// independent per-trit get() reference so a common-mode bug cannot hide.
TEST(CharCursorTest, PropertyMatchesPerTritReference) {
  Rng rng(602);
  for (const std::size_t n : {1u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    for (const std::uint32_t cc : {1u, 3u, 7u, 8u, 16u, 33u, 64u}) {
      TritVector v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v.set(i, static_cast<Trit>(rng.below(3)));
      }
      CharCursor cur(v, cc);
      for (std::uint64_t k = 0; !cur.done(); ++k) {
        std::uint64_t want_value = 0;
        std::uint64_t want_care = 0;
        for (std::uint32_t b = 0; b < cc; ++b) {
          const std::size_t pos = static_cast<std::size_t>(k) * cc + b;
          const Trit t = pos < n ? v.get(pos) : Trit::X;
          want_value = (want_value << 1) | (t == Trit::One ? 1u : 0u);
          want_care = (want_care << 1) | (is_care(t) ? 1u : 0u);
        }
        const auto c = cur.next();
        ASSERT_EQ(c.value, want_value) << "n=" << n << " cc=" << cc << " k=" << k;
        ASSERT_EQ(c.care, want_care) << "n=" << n << " cc=" << cc << " k=" << k;
      }
    }
  }
}

// next() walks its own bit-reversed word window while at() slices the
// planes on demand: for every character width and every length up to 300
// trits, both must agree with an independent per-trit get() reference, and
// at() calls interleaved with the walk must not disturb next().
TEST(CharCursorTest, PropertyNextMatchesAtAndPerTritEveryWidth) {
  Rng rng(1404);
  for (std::uint32_t cc = 1; cc <= 64; ++cc) {
    for (std::size_t n = 0; n <= 300; ++n) {
      TritVector v(n);
      const double x_density = rng.chance(0.5) ? 0.5 : 0.05;
      for (std::size_t i = 0; i < n; ++i) {
        if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
      }
      const auto reference = [&](std::uint64_t k) {
        CharCursor::Char want;
        for (std::uint32_t b = 0; b < cc; ++b) {
          const std::size_t pos = static_cast<std::size_t>(k) * cc + b;
          const Trit t = pos < n ? v.get(pos) : Trit::X;
          want.value = (want.value << 1) | (t == Trit::One ? 1u : 0u);
          want.care = (want.care << 1) | (is_care(t) ? 1u : 0u);
        }
        return want;
      };
      CharCursor cur(v, cc);
      ASSERT_EQ(cur.char_count(), (n + cc - 1) / cc);
      for (std::uint64_t k = 0; !cur.done(); ++k) {
        if (rng.chance(0.3)) {
          const std::uint64_t probe = rng.below(cur.char_count());
          const auto got = cur.at(probe);
          const auto want = reference(probe);
          ASSERT_EQ(got.value, want.value) << "at n=" << n << " cc=" << cc;
          ASSERT_EQ(got.care, want.care) << "at n=" << n << " cc=" << cc;
        }
        ASSERT_EQ(cur.index(), k);
        const auto want = reference(k);
        const auto got = cur.next();
        ASSERT_EQ(got.value, want.value) << "n=" << n << " cc=" << cc << " k=" << k;
        ASSERT_EQ(got.care, want.care) << "n=" << n << " cc=" << cc << " k=" << k;
        ASSERT_EQ(cur.at(k).value, got.value) << "n=" << n << " cc=" << cc << " k=" << k;
        ASSERT_EQ(cur.at(k).care, got.care) << "n=" << n << " cc=" << cc << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace tdc::bits
