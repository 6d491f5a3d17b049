#ifndef TDC_BITS_TRITVECTOR_H
#define TDC_BITS_TRITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bits/rng.h"
#include "bits/trit.h"
#include "bits/wordops.h"

namespace tdc::bits {

/// Packed vector of three-valued logic (0/1/X), the universal carrier for
/// scan-test data in this project.
///
/// Storage is two bit-planes of 64-bit words:
///   * `care` — bit i set iff position i is specified (0 or 1),
///   * `value` — the bit value; kept 0 wherever care is 0 (normal form),
/// which makes compatibility checks and care-bit counting word-parallel.
class TritVector {
 public:
  TritVector() = default;

  /// Constructs `n` trits, all initialized to `fill`.
  explicit TritVector(std::size_t n, Trit fill = Trit::X);

  /// Parses a textual cube, e.g. "01XX10-1" ('-' is an X alias), straight
  /// into the planes with simd::pack_trit_chars. Throws
  /// Error{InvalidInput} (a std::invalid_argument) naming the first
  /// character that is not a trit.
  static TritVector from_string(std::string_view s);

  /// Fully specified vector of `n` trits whose value plane is `value`
  /// (position i at bit i % 64 of word i / 64); the care plane is set once
  /// for the whole vector. Bits of `value` past `n` are cleared. The LZW
  /// decoder's output constructor. Precondition: value.size() ==
  /// ceil(n / 64).
  static TritVector from_value_words(std::vector<std::uint64_t> value,
                                     std::size_t n);

  /// Number of trits.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Reads the trit at `i`. Precondition: i < size().
  Trit get(std::size_t i) const;

  /// Writes the trit at `i`. Precondition: i < size().
  void set(std::size_t i, Trit t);

  /// Appends one trit at the end.
  void push_back(Trit t);

  /// Appends every trit of `other`: both planes are shift-merged a whole
  /// word at a time. Serialization runs this once per cube, on every engine
  /// job and every daemon compress.
  void append(const TritVector& other);

  /// Reserves storage for `n` trits, so a run of appends up to that length
  /// never reallocates.
  void reserve(std::size_t n) {
    care_.reserve(words_for(n));
    value_.reserve(words_for(n));
  }

  /// Number of specified (0/1) positions.
  std::size_t care_count() const;

  /// Number of X positions.
  std::size_t x_count() const { return size_ - care_count(); }

  /// Fraction of X positions in [0,1]; 0 for an empty vector.
  double x_density() const {
    return size_ == 0 ? 0.0 : static_cast<double>(x_count()) / static_cast<double>(size_);
  }

  /// True iff no position is X.
  bool fully_specified() const { return care_count() == size_; }

  /// True iff the two vectors have equal size and every position is
  /// pairwise compatible (X matches anything). This is the cube-merge /
  /// verification predicate.
  bool compatible_with(const TritVector& other) const;

  /// True iff every care bit of `this` has the same value in `other`
  /// (other may specify more). `other` must be the same size.
  bool covered_by(const TritVector& other) const;

  /// Merges a compatible vector into this one (X positions adopt the other
  /// side's value). Precondition: compatible_with(other).
  void merge_in(const TritVector& other);

  /// Copy of trits [pos, pos+len). Precondition: pos+len <= size().
  TritVector slice(std::size_t pos, std::size_t len) const;

  /// Replaces every X by `v` and returns the fully-specified result.
  TritVector filled(Trit v) const;

  /// Replaces every X by an independent fair coin flip from `rng`.
  TritVector filled_random(Rng& rng) const;

  /// Replaces each X by the value of the nearest preceding care bit
  /// (0 if none yet) — the "repeat fill" favoured by run-length coders.
  TritVector filled_repeat_last() const;

  /// Exact (value + care plane) equality.
  bool operator==(const TritVector& other) const;
  bool operator!=(const TritVector& other) const { return !(*this == other); }

  /// Textual form using '0'/'1'/'X'.
  std::string to_string() const;

  /// Interprets trits [pos, pos+len) as an MSB-first unsigned integer;
  /// X bits read as 0, as do positions at or past size() (implicit X
  /// padding for a trailing partial character). Precondition: len <= 64.

  std::uint64_t word(std::size_t pos, std::size_t len) const;

  /// MSB-first mask of care bits over [pos, pos+len): bit set iff the
  /// corresponding trit is specified. Together with word() this yields the
  /// (value, mask) pair used for wildcard character matching.
  /// Positions at or past size() read as X (mask 0), so a trailing partial
  /// character can be fetched without explicit padding.
  std::uint64_t care_word(std::size_t pos, std::size_t len) const;

 private:
  friend class CharCursor;
  static std::size_t words_for(std::size_t n) { return (n + 63) / 64; }
  std::size_t size_ = 0;
  std::vector<std::uint64_t> care_;
  std::vector<std::uint64_t> value_;
};

/// Streaming character cursor over a TritVector: yields the MSB-first
/// (value, care) pair of each `char_bits`-wide character in order.
///
/// next() keeps both planes in a 64-bit window, bit-reversed so the next
/// unread trit sits at bit 63: a character is the window's top `char_bits`
/// bits, shifted off after reading. One storage word per plane is reversed
/// per 64 trits walked, so a character costs a few shifts instead of the
/// two field extractions and two SWAR reversals of at().
///
/// Semantics match word()/care_word() exactly: X bits read as value 0 and
/// care 0, and positions at or past size() read as X, so a trailing partial
/// character needs no explicit padding. The cursor never outlives the
/// vector it walks.
class CharCursor {
 public:
  struct Char {
    std::uint64_t value = 0;  ///< MSB-first character bits (X read as 0)
    std::uint64_t care = 0;   ///< MSB-first mask of specified bits
  };

  /// Precondition: 1 <= char_bits <= 64.
  CharCursor(const TritVector& v, std::uint32_t char_bits);

  /// Number of characters covered (the last one possibly X-padded).
  std::uint64_t char_count() const { return char_count_; }

  /// Index of the character next() would yield.
  std::uint64_t index() const { return index_; }

  /// True once every character has been consumed.
  bool done() const { return index_ >= char_count_; }

  /// Random access to any character; does not move the cursor.
  Char at(std::uint64_t char_index) const {
    const std::size_t pos = static_cast<std::size_t>(char_index) * bits_;
    return Char{
        .value = reverse_low_bits(extract_field(v_->value_, v_->size_, pos, bits_),
                                  bits_),
        .care = reverse_low_bits(extract_field(v_->care_, v_->size_, pos, bits_),
                                 bits_),
    };
  }

  /// Yields the current character and advances. Precondition: !done().
  Char next() {
    ++index_;
    const unsigned top = 64u - bits_;
    Char c;
    if (avail_ >= bits_) {
      c = Char{.value = value_win_ >> top, .care = care_win_ >> top};
      value_win_ = shl_1_64(value_win_, bits_);
      care_win_ = shl_1_64(care_win_, bits_);
      avail_ -= bits_;
      return c;
    }
    // The character straddles into the next storage word: splice that
    // word's reversed bits under the `avail_` bits still held, then keep
    // what the character did not use. Past the last word both planes read
    // 0, which is X.
    std::uint64_t value_word = 0;
    std::uint64_t care_word = 0;
    if (word_ < v_->care_.size()) {
      value_word = reverse_bits64(v_->value_[word_]);
      care_word = reverse_bits64(v_->care_[word_]);
    }
    ++word_;
    const unsigned used = bits_ - avail_;  // in [1, 64]
    c = Char{.value = (value_win_ | (value_word >> avail_)) >> top,
             .care = (care_win_ | (care_word >> avail_)) >> top};
    value_win_ = shl_1_64(value_word, used);
    care_win_ = shl_1_64(care_word, used);
    avail_ = 64u - used;
    return c;
  }

 private:
  /// x << s for s in [1, 64] (64 yields 0, where a plain shift is UB).
  static std::uint64_t shl_1_64(std::uint64_t x, unsigned s) {
    return (x << (s - 1)) << 1;
  }

  /// LSB-first field [pos, pos+len) of a packed bit plane; bits at or past
  /// `nbits` read as 0. Relies on the normal-form invariant that storage
  /// bits past size() are kept zero, so only whole-word bounds need checks.
  static std::uint64_t extract_field(const std::vector<std::uint64_t>& words,
                                     std::size_t nbits, std::size_t pos,
                                     std::size_t len) {
    if (pos >= nbits) return 0;
    const std::size_t w = pos / 64;
    const std::size_t off = pos % 64;
    std::uint64_t raw = words[w] >> off;
    if (off != 0 && w + 1 < words.size()) raw |= words[w + 1] << (64 - off);
    return raw & low_mask(static_cast<unsigned>(len));
  }

  /// Reverses the low `len` bits (the planes store position i at bit i of a
  /// word, while characters are read MSB-first).
  static std::uint64_t reverse_low_bits(std::uint64_t raw, std::size_t len) {
    return bits::reverse_low_bits(raw, static_cast<unsigned>(len));
  }

  const TritVector* v_;
  std::uint32_t bits_;
  std::uint64_t char_count_;
  std::uint64_t index_ = 0;
  // next()'s window: `avail_` unread trits of each plane, bit-reversed and
  // aligned at bit 63 (bits below them are 0); `word_` is the next storage
  // word to load.
  std::uint64_t value_win_ = 0;
  std::uint64_t care_win_ = 0;
  unsigned avail_ = 0;
  std::size_t word_ = 0;
};

}  // namespace tdc::bits

#endif  // TDC_BITS_TRITVECTOR_H
