#ifndef TDC_BITS_SIMD_H
#define TDC_BITS_SIMD_H

#include <cstddef>
#include <cstdint>

namespace tdc::bits::simd {

/// Bulk kernels over packed 64-bit bit-plane arrays — the word-at-a-time
/// bodies of TritVector's care_count / compatible_with / covered_by /
/// merge_in / from_string. Every kernel is an exact bitwise computation, so the SIMD and
/// scalar variants are bit-identical by construction (pinned by the
/// SimdKernels property tests); vectorization changes speed, never results.
///
/// Dispatch: when the tree is built with -DTDC_SIMD=ON (the default on
/// x86-64) an AVX2 translation unit is compiled alongside the scalar one
/// and selected once at startup iff the running CPU reports AVX2 — a
/// baseline-ISA binary therefore never executes a VEX instruction. With the
/// option off, or on non-x86 targets, only the scalar kernels exist.

/// Name of the kernel set in use: "scalar" or "avx2". Stable for the
/// process lifetime; surfaced by the benches so BENCH_*.json records which
/// path produced each number.
const char* active_kernel();

/// Total set bits across `words[0, n)`.
std::size_t popcount_words(const std::uint64_t* words, std::size_t n);

/// True iff some position is specified in both planes with different
/// values: any ((va ^ vb) & ca & cb) != 0. The negation of the cube
/// compatibility predicate.
bool planes_conflict(const std::uint64_t* care_a, const std::uint64_t* value_a,
                     const std::uint64_t* care_b, const std::uint64_t* value_b,
                     std::size_t n);

/// True iff some care bit of plane A is missing or different in plane B:
/// any ((ca & ~cb) | ((va ^ vb) & ca)) != 0. The negation of covered_by.
bool planes_uncovered(const std::uint64_t* care_a, const std::uint64_t* value_a,
                      const std::uint64_t* care_b, const std::uint64_t* value_b,
                      std::size_t n);

/// Merges plane B into plane A in place: A's X positions adopt B's value
/// and care bits (value_a |= value_b & ~care_a; care_a |= care_b).
void planes_merge(std::uint64_t* care_a, std::uint64_t* value_a,
                  const std::uint64_t* care_b, const std::uint64_t* value_b,
                  std::size_t n);

/// Packs `n` textual trits into the two planes: '0' and '1' set the care
/// bit (and '1' the value bit), 'x', 'X' and '-' leave both bits 0. Writes
/// all ceil(n/64) words of each plane, bits past `n` zeroed (normal form).
/// Returns false iff some character is none of those five; the planes are
/// then unspecified and the caller locates the first bad character itself.
/// The text -> bit-plane boundary of every `.tests` parse.
bool pack_trit_chars(const char* chars, std::size_t n, std::uint64_t* care,
                     std::uint64_t* value);

namespace detail {

/// The scalar reference kernels, always compiled; exposed so the property
/// tests can compare whatever active_kernel() dispatches to against them.
std::size_t popcount_words_scalar(const std::uint64_t* words, std::size_t n);
bool planes_conflict_scalar(const std::uint64_t* care_a,
                            const std::uint64_t* value_a,
                            const std::uint64_t* care_b,
                            const std::uint64_t* value_b, std::size_t n);
bool planes_uncovered_scalar(const std::uint64_t* care_a,
                             const std::uint64_t* value_a,
                             const std::uint64_t* care_b,
                             const std::uint64_t* value_b, std::size_t n);
void planes_merge_scalar(std::uint64_t* care_a, std::uint64_t* value_a,
                         const std::uint64_t* care_b,
                         const std::uint64_t* value_b, std::size_t n);
bool pack_trit_chars_scalar(const char* chars, std::size_t n,
                            std::uint64_t* care, std::uint64_t* value);

}  // namespace detail

}  // namespace tdc::bits::simd

#endif  // TDC_BITS_SIMD_H
