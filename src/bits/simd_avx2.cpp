// AVX2 bodies of the bit-plane kernels (bits/simd.h). This is the only
// translation unit compiled with -mavx2 — it must stay free of code that
// runs before the dispatcher's CPU check, so it defines nothing but the
// kernels themselves. Built only under -DTDC_SIMD=ON on x86-64; the scalar
// kernels in simd.cpp remain the reference the property tests pin against.
#if defined(TDC_SIMD_X86)

#include <bit>
#include <cstddef>
#include <cstdint>
#include <immintrin.h>

#include "bits/simd.h"

namespace tdc::bits::simd::detail {

namespace {

/// Loads four plane words (the planes are heap vectors, not guaranteed
/// 32-byte aligned).
inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

}  // namespace

std::size_t popcount_words_avx2(const std::uint64_t* words, std::size_t n) {
  // Nibble-LUT popcount (Mula): per 256-bit lane, split bytes into nibbles,
  // look both up in a 16-entry count table, horizontally sum via sad_epu8.
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nib = _mm256_set1_epi8(0x0F);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = load4(words + i);
    const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nib));
    const __m256i hi = _mm256_shuffle_epi8(
        lut, _mm256_and_si256(_mm256_srli_epi64(v, 4), nib));
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256()));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t total = static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] +
                                               lanes[3]);
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(words[i]));
  return total;
}

bool planes_conflict_avx2(const std::uint64_t* care_a,
                          const std::uint64_t* value_a,
                          const std::uint64_t* care_b,
                          const std::uint64_t* value_b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i both = _mm256_and_si256(load4(care_a + i), load4(care_b + i));
    const __m256i diff = _mm256_xor_si256(load4(value_a + i), load4(value_b + i));
    if (_mm256_testz_si256(diff, both) == 0) return true;
  }
  for (; i < n; ++i) {
    if (((value_a[i] ^ value_b[i]) & care_a[i] & care_b[i]) != 0) return true;
  }
  return false;
}

bool planes_uncovered_avx2(const std::uint64_t* care_a,
                           const std::uint64_t* value_a,
                           const std::uint64_t* care_b,
                           const std::uint64_t* value_b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ca = load4(care_a + i);
    const __m256i missing = _mm256_andnot_si256(load4(care_b + i), ca);
    const __m256i diff = _mm256_and_si256(
        _mm256_xor_si256(load4(value_a + i), load4(value_b + i)), ca);
    if (_mm256_testz_si256(_mm256_or_si256(missing, diff),
                           _mm256_set1_epi64x(-1)) == 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if (((care_a[i] & ~care_b[i]) | ((value_a[i] ^ value_b[i]) & care_a[i])) !=
        0) {
      return true;
    }
  }
  return false;
}

void planes_merge_avx2(std::uint64_t* care_a, std::uint64_t* value_a,
                       const std::uint64_t* care_b,
                       const std::uint64_t* value_b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ca = load4(care_a + i);
    const __m256i adopted = _mm256_andnot_si256(ca, load4(value_b + i));
    store4(value_a + i, _mm256_or_si256(load4(value_a + i), adopted));
    store4(care_a + i, _mm256_or_si256(ca, load4(care_b + i)));
  }
  for (; i < n; ++i) {
    value_a[i] |= value_b[i] & ~care_a[i];
    care_a[i] |= care_b[i];
  }
}

bool pack_trit_chars_avx2(const char* chars, std::size_t n,
                          std::uint64_t* care, std::uint64_t* value) {
  // 32 characters per compare: '0'/'1' give the care mask, '1' the value
  // mask, and every byte must also match one of the don't-care spellings
  // ('x' and 'X' differ only in bit 5, folded by the OR with 0x20).
  const __m256i zero_ch = _mm256_set1_epi8('0');
  const __m256i one_ch = _mm256_set1_epi8('1');
  const __m256i x_ch = _mm256_set1_epi8('x');
  const __m256i dash_ch = _mm256_set1_epi8('-');
  const __m256i case_bit = _mm256_set1_epi8(0x20);
  std::uint32_t invalid = 0;
  const std::size_t words = n / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t c = 0;
    std::uint64_t v = 0;
    for (unsigned half = 0; half < 2; ++half) {
      const __m256i text = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(chars + w * 64 + half * 32));
      const __m256i ones = _mm256_cmpeq_epi8(text, one_ch);
      const __m256i specified =
          _mm256_or_si256(_mm256_cmpeq_epi8(text, zero_ch), ones);
      const __m256i dont_care = _mm256_or_si256(
          _mm256_cmpeq_epi8(_mm256_or_si256(text, case_bit), x_ch),
          _mm256_cmpeq_epi8(text, dash_ch));
      const auto mask = [](__m256i m) {
        return static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(_mm256_movemask_epi8(m)));
      };
      c |= mask(specified) << (32 * half);
      v |= mask(ones) << (32 * half);
      invalid |= ~static_cast<std::uint32_t>(
          mask(_mm256_or_si256(specified, dont_care)));
    }
    care[w] = c;
    value[w] = v;
  }
  const std::size_t done = words * 64;
  const bool tail_ok = pack_trit_chars_scalar(chars + done, n - done,
                                              care + words, value + words);
  return invalid == 0 && tail_ok;
}

}  // namespace tdc::bits::simd::detail

#endif  // TDC_SIMD_X86
