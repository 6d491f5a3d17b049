#include "bits/tritvector.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bits/simd.h"
#include "core/error.h"

namespace tdc::bits {

TritVector::TritVector(std::size_t n, Trit fill) : size_(n) {
  care_.assign(words_for(n), 0);
  value_.assign(words_for(n), 0);
  if (fill != Trit::X && n > 0) {
    const std::uint64_t care_fill = ~0ULL;
    const std::uint64_t val_fill = fill == Trit::One ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < care_.size(); ++w) {
      care_[w] = care_fill;
      value_[w] = val_fill;
    }
    // Clear bits past the end so whole-word operations stay exact.
    const std::size_t tail = n % 64;
    if (tail != 0) {
      const std::uint64_t mask = (1ULL << tail) - 1;
      care_.back() &= mask;
      value_.back() &= mask;
    }
  }
}

TritVector TritVector::from_string(std::string_view s) {
  TritVector v;
  v.size_ = s.size();
  v.care_.resize(words_for(s.size()));
  v.value_.resize(words_for(s.size()));
  if (!simd::pack_trit_chars(s.data(), s.size(), v.care_.data(),
                             v.value_.data())) {
    const char bad = *std::find_if_not(s.begin(), s.end(), is_trit_char);
    Error{ErrorKind::InvalidInput, "TritVector::from_string: bad character '" +
                                       std::string(1, bad) + "'"}
        .raise();
  }
  return v;
}

TritVector TritVector::from_value_words(std::vector<std::uint64_t> value,
                                        std::size_t n) {
  assert(value.size() == words_for(n));
  TritVector v;
  v.size_ = n;
  v.care_.assign(value.size(), ~0ULL);
  v.value_ = std::move(value);
  if (n % 64 != 0) {
    const std::uint64_t mask = low_mask(static_cast<unsigned>(n % 64));
    v.care_.back() &= mask;
    v.value_.back() &= mask;
  }
  return v;
}

Trit TritVector::get(std::size_t i) const {
  assert(i < size_);
  const std::size_t w = i / 64;
  const std::uint64_t m = 1ULL << (i % 64);
  if ((care_[w] & m) == 0) return Trit::X;
  return (value_[w] & m) != 0 ? Trit::One : Trit::Zero;
}

void TritVector::set(std::size_t i, Trit t) {
  assert(i < size_);
  const std::size_t w = i / 64;
  const std::uint64_t m = 1ULL << (i % 64);
  if (t == Trit::X) {
    care_[w] &= ~m;
    value_[w] &= ~m;  // keep normal form: value is 0 under X
  } else {
    care_[w] |= m;
    if (t == Trit::One) {
      value_[w] |= m;
    } else {
      value_[w] &= ~m;
    }
  }
}

void TritVector::push_back(Trit t) {
  if (size_ % 64 == 0) {
    care_.push_back(0);
    value_.push_back(0);
  }
  ++size_;
  set(size_ - 1, t);
}

void TritVector::append(const TritVector& other) {
  if (&other == this) {
    const TritVector copy = other;
    append(copy);
    return;
  }
  const std::size_t base = size_ / 64;
  const unsigned off = static_cast<unsigned>(size_ % 64);
  size_ += other.size_;
  care_.resize(words_for(size_));
  value_.resize(words_for(size_));
  // `other`'s word i lands at bit `off` of word base + i and spills its top
  // `off` bits into the next word. The destination bits are zero (normal
  // form past the old size, fresh words beyond), so OR is a store.
  for (std::size_t i = 0; i < other.care_.size(); ++i) {
    care_[base + i] |= other.care_[i] << off;
    value_[base + i] |= other.value_[i] << off;
    if (off != 0 && base + i + 1 < care_.size()) {
      care_[base + i + 1] |= other.care_[i] >> (64 - off);
      value_[base + i + 1] |= other.value_[i] >> (64 - off);
    }
  }
}

std::size_t TritVector::care_count() const {
  return simd::popcount_words(care_.data(), care_.size());
}

bool TritVector::compatible_with(const TritVector& other) const {
  if (size_ != other.size_) return false;
  return !simd::planes_conflict(care_.data(), value_.data(), other.care_.data(),
                                other.value_.data(), care_.size());
}

bool TritVector::covered_by(const TritVector& other) const {
  // Every care bit of this must be a care bit of other with equal value.
  if (size_ != other.size_) return false;
  return !simd::planes_uncovered(care_.data(), value_.data(),
                                 other.care_.data(), other.value_.data(),
                                 care_.size());
}

void TritVector::merge_in(const TritVector& other) {
  assert(compatible_with(other));
  simd::planes_merge(care_.data(), value_.data(), other.care_.data(),
                     other.value_.data(), care_.size());
}

TritVector TritVector::slice(std::size_t pos, std::size_t len) const {
  assert(pos + len <= size_);
  TritVector out(len);
  for (std::size_t i = 0; i < len; ++i) out.set(i, get(pos + i));
  return out;
}

TritVector TritVector::filled(Trit v) const {
  assert(v != Trit::X);
  TritVector out = *this;
  for (std::size_t w = 0; w < out.care_.size(); ++w) {
    const std::uint64_t xs = ~out.care_[w];
    if (v == Trit::One) out.value_[w] |= xs;
    out.care_[w] = ~0ULL;
  }
  const std::size_t tail = size_ % 64;
  if (tail != 0 && !out.care_.empty()) {
    const std::uint64_t mask = (1ULL << tail) - 1;
    out.care_.back() &= mask;
    out.value_.back() &= mask;
  }
  return out;
}

TritVector TritVector::filled_random(Rng& rng) const {
  TritVector out = *this;
  for (std::size_t i = 0; i < size_; ++i) {
    if (out.get(i) == Trit::X) out.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return out;
}

TritVector TritVector::filled_repeat_last() const {
  TritVector out = *this;
  Trit last = Trit::Zero;
  for (std::size_t i = 0; i < size_; ++i) {
    const Trit t = out.get(i);
    if (t == Trit::X) {
      out.set(i, last);
    } else {
      last = t;
    }
  }
  return out;
}

bool TritVector::operator==(const TritVector& other) const {
  return size_ == other.size_ && care_ == other.care_ && value_ == other.value_;
}

std::string TritVector::to_string() const {
  // Word at a time, branch-free: care + value is 0 for X, 1 for '0' and 2
  // for '1' (normal form keeps value 0 under X).
  std::string s(size_, 'X');
  for (std::size_t w = 0; w < care_.size(); ++w) {
    const std::uint64_t c = care_[w];
    const std::uint64_t v = value_[w];
    const std::size_t len = std::min<std::size_t>(64, size_ - w * 64);
    char* out = s.data() + w * 64;
    for (std::size_t j = 0; j < len; ++j) {
      out[j] = "X01"[((c >> j) & 1u) + ((v >> j) & 1u)];
    }
  }
  return s;
}

namespace {

/// LSB-first field [pos, pos+len) of a packed bit plane; bits at or past the
/// vector's end read as 0 thanks to the normal-form invariant (storage bits
/// past size() are kept zero), so only whole-word bounds need checks.
std::uint64_t extract_plane_field(const std::vector<std::uint64_t>& words,
                                  std::size_t nbits, std::size_t pos,
                                  std::size_t len) {
  if (pos >= nbits) return 0;
  const std::size_t w = pos / 64;
  const std::size_t off = pos % 64;
  std::uint64_t raw = words[w] >> off;
  if (off != 0 && w + 1 < words.size()) raw |= words[w + 1] << (64 - off);
  return raw & low_mask(static_cast<unsigned>(len));
}

}  // namespace

std::uint64_t TritVector::word(std::size_t pos, std::size_t len) const {
  assert(len <= 64);
  if (len == 0) return 0;
  return reverse_low_bits(extract_plane_field(value_, size_, pos, len),
                          static_cast<unsigned>(len));
}

std::uint64_t TritVector::care_word(std::size_t pos, std::size_t len) const {
  assert(len <= 64);
  if (len == 0) return 0;
  return reverse_low_bits(extract_plane_field(care_, size_, pos, len),
                          static_cast<unsigned>(len));
}

CharCursor::CharCursor(const TritVector& v, std::uint32_t char_bits)
    : v_(&v), bits_(char_bits),
      char_count_((v.size() + char_bits - 1) / char_bits) {
  assert(char_bits >= 1 && char_bits <= 64);
}

}  // namespace tdc::bits
