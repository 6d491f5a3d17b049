#include "bits/simd.h"

#include <algorithm>
#include <array>
#include <bit>

namespace tdc::bits::simd {

namespace detail {

namespace {

/// Class bits of one text character for the trit packer: the bit it puts in
/// each plane, plus a sticky "not a trit" flag. A table lookup keeps the
/// per-character body free of data-dependent branches.
constexpr std::uint8_t kValueBit = 1;
constexpr std::uint8_t kCareBit = 2;
constexpr std::uint8_t kBadBit = 4;

constexpr std::array<std::uint8_t, 256> kTritClass = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kBadBit);
  table['0'] = kCareBit;
  table['1'] = kCareBit | kValueBit;
  table['x'] = table['X'] = table['-'] = 0;
  return table;
}();

}  // namespace

std::size_t popcount_words_scalar(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

bool planes_conflict_scalar(const std::uint64_t* care_a,
                            const std::uint64_t* value_a,
                            const std::uint64_t* care_b,
                            const std::uint64_t* value_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (((value_a[i] ^ value_b[i]) & care_a[i] & care_b[i]) != 0) return true;
  }
  return false;
}

bool planes_uncovered_scalar(const std::uint64_t* care_a,
                             const std::uint64_t* value_a,
                             const std::uint64_t* care_b,
                             const std::uint64_t* value_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (((care_a[i] & ~care_b[i]) | ((value_a[i] ^ value_b[i]) & care_a[i])) !=
        0) {
      return true;
    }
  }
  return false;
}

void planes_merge_scalar(std::uint64_t* care_a, std::uint64_t* value_a,
                         const std::uint64_t* care_b,
                         const std::uint64_t* value_b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    value_a[i] |= value_b[i] & ~care_a[i];
    care_a[i] |= care_b[i];
  }
}

bool pack_trit_chars_scalar(const char* chars, std::size_t n,
                            std::uint64_t* care, std::uint64_t* value) {
  std::uint8_t classes = 0;
  for (std::size_t w = 0; w * 64 < n; ++w) {
    const char* text = chars + w * 64;
    const std::size_t len = std::min<std::size_t>(64, n - w * 64);
    std::uint64_t c = 0;
    std::uint64_t v = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint8_t cls = kTritClass[static_cast<unsigned char>(text[j])];
      c |= static_cast<std::uint64_t>((cls >> 1) & 1u) << j;
      v |= static_cast<std::uint64_t>(cls & 1u) << j;
      classes |= cls;
    }
    care[w] = c;
    value[w] = v;
  }
  return (classes & kBadBit) == 0;
}

#if defined(TDC_SIMD_X86)
// Implemented in simd_avx2.cpp, the only TU built with -mavx2; called only
// after the runtime CPU check below reports AVX2 support.
std::size_t popcount_words_avx2(const std::uint64_t* words, std::size_t n);
bool planes_conflict_avx2(const std::uint64_t* care_a,
                          const std::uint64_t* value_a,
                          const std::uint64_t* care_b,
                          const std::uint64_t* value_b, std::size_t n);
bool planes_uncovered_avx2(const std::uint64_t* care_a,
                           const std::uint64_t* value_a,
                           const std::uint64_t* care_b,
                           const std::uint64_t* value_b, std::size_t n);
void planes_merge_avx2(std::uint64_t* care_a, std::uint64_t* value_a,
                       const std::uint64_t* care_b,
                       const std::uint64_t* value_b, std::size_t n);
bool pack_trit_chars_avx2(const char* chars, std::size_t n,
                          std::uint64_t* care, std::uint64_t* value);
#endif

namespace {

/// One-time runtime ISA probe. The result is immutable for the process, so
/// every kernel branches on a plain bool the predictor learns immediately.
bool detect_avx2() {
#if defined(TDC_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const bool kUseAvx2 = detect_avx2();

}  // namespace
}  // namespace detail

const char* active_kernel() { return detail::kUseAvx2 ? "avx2" : "scalar"; }

std::size_t popcount_words(const std::uint64_t* words, std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) return detail::popcount_words_avx2(words, n);
#endif
  return detail::popcount_words_scalar(words, n);
}

bool planes_conflict(const std::uint64_t* care_a, const std::uint64_t* value_a,
                     const std::uint64_t* care_b, const std::uint64_t* value_b,
                     std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) {
    return detail::planes_conflict_avx2(care_a, value_a, care_b, value_b, n);
  }
#endif
  return detail::planes_conflict_scalar(care_a, value_a, care_b, value_b, n);
}

bool planes_uncovered(const std::uint64_t* care_a, const std::uint64_t* value_a,
                      const std::uint64_t* care_b, const std::uint64_t* value_b,
                      std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) {
    return detail::planes_uncovered_avx2(care_a, value_a, care_b, value_b, n);
  }
#endif
  return detail::planes_uncovered_scalar(care_a, value_a, care_b, value_b, n);
}

void planes_merge(std::uint64_t* care_a, std::uint64_t* value_a,
                  const std::uint64_t* care_b, const std::uint64_t* value_b,
                  std::size_t n) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 8) {
    detail::planes_merge_avx2(care_a, value_a, care_b, value_b, n);
    return;
  }
#endif
  detail::planes_merge_scalar(care_a, value_a, care_b, value_b, n);
}

bool pack_trit_chars(const char* chars, std::size_t n, std::uint64_t* care,
                     std::uint64_t* value) {
#if defined(TDC_SIMD_X86)
  if (detail::kUseAvx2 && n >= 64) {
    return detail::pack_trit_chars_avx2(chars, n, care, value);
  }
#endif
  return detail::pack_trit_chars_scalar(chars, n, care, value);
}

}  // namespace tdc::bits::simd
