#include "lzw/decoder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>

#include "obs/trace.h"

namespace tdc::lzw {

namespace {

std::size_t words_for(std::uint64_t bits) {
  return static_cast<std::size_t>((bits + 63) / 64);
}

/// Code source over an explicit code list.
struct ListSource {
  const std::vector<std::uint32_t>& codes;
  std::size_t next = 0;

  std::optional<std::uint32_t> fetch(std::uint32_t /*width*/) {
    return codes[next++];
  }
  std::int64_t tell() const { return -1; }
};

/// Code source over a tester bit stream.
struct StreamSource {
  bits::BitReader& reader;

  std::optional<std::uint32_t> fetch(std::uint32_t width) {
    if (reader.remaining() < width) return std::nullopt;
    return static_cast<std::uint32_t>(reader.read(width));
  }
  std::int64_t tell() const { return static_cast<std::int64_t>(reader.position()); }
};

/// Every defined code's full expansion, packed flat in output bit order:
/// character k of the expansion occupies bits [k*C_C, (k+1)*C_C), first
/// character at bit 0, each character MSB first — exactly the bits the
/// code writes into the output value plane. A code's words start on a word
/// boundary and hold zeros past its length, so emitting it is one
/// shift-merge per word. This is the paper's Fig. 5 dictionary RAM, which
/// stores whole expansions so one read serves a code; the words are sized
/// by each entry's real length, so an unused C_MDATA bound costs nothing.
class ExpansionArena {
 public:
  explicit ExpansionArena(const LzwConfig& config) : char_bits_(config.char_bits) {
    // A literal is one character: one word each (C_C <= 16).
    const std::uint32_t literals = config.literal_count();
    words_.resize(literals);
    start_.resize(literals);
    for (std::uint32_t c = 0; c < literals; ++c) {
      words_[c] = bits::reverse_low_bits(c, char_bits_);
      start_[c] = c;
    }
  }

  /// Codes stored so far; the next add() defines code size().
  std::uint32_t size() const { return static_cast<std::uint32_t>(start_.size()); }

  const std::uint64_t* expansion(std::uint32_t code) const {
    return words_.data() + start_[code];
  }

  /// Stores the next code as parent's expansion (`parent_chars` characters)
  /// followed by character `ch`.
  void add(std::uint32_t parent, std::uint32_t parent_chars, std::uint32_t ch) {
    const std::uint64_t pos = static_cast<std::uint64_t>(parent_chars) * char_bits_;
    const std::size_t from = start_[parent];
    const std::size_t at = words_.size();
    words_.resize(at + words_for(pos + char_bits_));
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(from), words_for(pos),
                words_.begin() + static_cast<std::ptrdiff_t>(at));
    const std::uint64_t field = bits::reverse_low_bits(ch, char_bits_);
    const std::size_t w = at + static_cast<std::size_t>(pos / 64);
    const unsigned off = static_cast<unsigned>(pos % 64);
    words_[w] |= field << off;
    if (off + char_bits_ > 64) words_[w + 1] |= field >> (64 - off);
    start_.push_back(at);
  }

 private:
  std::uint32_t char_bits_;
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> start_;
};

/// The output value plane under construction. Bits land at increasing
/// positions into zeroed words, so depositing is OR. Storage grows with the
/// bits actually decoded, never beyond `limit` bits plus one expansion, so a
/// header's original_bits sizes nothing by itself.
class OutputPlane {
 public:
  explicit OutputPlane(std::uint64_t limit) : limit_(limit) {}

  /// True once `limit` bits are written; later codes only count length.
  bool full() const { return pos_ >= limit_; }

  /// Appends `nbits` bits from `src` (zeros past `nbits`).
  void deposit(const std::uint64_t* src, std::uint64_t nbits) {
    const std::size_t w0 = static_cast<std::size_t>(pos_ / 64);
    const unsigned off = static_cast<unsigned>(pos_ % 64);
    const std::size_t n = words_for(nbits);
    if (w0 + n + 1 > words_.size()) {
      words_.resize(std::max(w0 + n + 1,
                             std::min(2 * words_.size(), words_for(limit_) + 1)));
    }
    std::uint64_t* dst = words_.data() + w0;
    if (off == 0) {
      for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] |= src[i] << off;
        dst[i + 1] |= src[i] >> (64 - off);
      }
    }
    pos_ += nbits;
  }

  /// The first `limit` bits as a fully specified vector.
  bits::TritVector take() && {
    words_.resize(words_for(limit_));
    return bits::TritVector::from_value_words(std::move(words_),
                                              static_cast<std::size_t>(limit_));
  }

 private:
  std::uint64_t limit_;
  std::uint64_t pos_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace

Result<DecodeResult> Decoder::try_decode(const std::vector<std::uint32_t>& codes,
                                         std::uint64_t original_bits) const {
  ListSource source{codes};
  return decode_impl(source, codes.size(), original_bits);
}

Result<DecodeResult> Decoder::try_decode_stream(bits::BitReader& reader,
                                                std::size_t code_count,
                                                std::uint64_t original_bits) const {
  StreamSource source{reader};
  return decode_impl(source, code_count, original_bits);
}

template <class Source>
Result<DecodeResult> Decoder::decode_impl(Source& source, std::size_t code_count,
                                          std::uint64_t original_bits) const {
  obs::TraceSpan span("lzw.decode");
  Dictionary dict(config_);
  ExpansionArena arena(config_);
  OutputPlane out(original_bits);
  DecodeResult result;
  DecoderTelemetry& tel = result.telemetry;
  const std::uint32_t cc = config_.char_bits;
  std::uint64_t decoded_chars = 0;
  // Expansion lengths are counted into this plain array and folded into the
  // histogram after the loop, as the encoder does with its match lengths;
  // a full histogram add per code is measurable here. Longer expansions
  // (a wide C_MDATA) are recorded directly.
  std::array<std::uint64_t, 64> len_counts{};

  std::uint32_t prev = kNoCode;
  for (std::size_t idx = 0; idx < code_count; ++idx) {
    const std::uint32_t width =
        config_.variable_width
            ? std::min(static_cast<std::uint32_t>(std::bit_width(dict.size())),
                       config_.code_bits())
            : config_.code_bits();
    const std::int64_t code_bit_offset = source.tell();
    const std::optional<std::uint32_t> fetched = source.fetch(width);
    if (!fetched) {
      Error err{ErrorKind::CodeStreamTruncated,
                "payload ends inside code " + std::to_string(idx) + " of " +
                    std::to_string(code_count) + " (" + std::to_string(width) +
                    " bits needed)"};
      err.code_index = static_cast<std::int64_t>(idx);
      err.bit_offset = code_bit_offset;
      return err;
    }
    const std::uint32_t code = *fetched;
    std::uint32_t entry_first = 0;
    if (dict.defined(code)) {
      entry_first = dict.first_char(code);
    } else if (prev != kNoCode && code == dict.next_code() && dict.extendable(prev) &&
               dict.child(prev, dict.first_char(prev)) == kNoCode) {
      // KwKwK (paper Fig. 4f): the code references the entry that is being
      // created right now — its expansion is Buffer plus Buffer's first char.
      // A real encoder only emits this while (prev, first_char) is still
      // undefined; if that child exists the code is corrupt, and treating it
      // as KwKwK would leave `code` undefined and poison `prev`. The add
      // below defines it before it is emitted.
      entry_first = dict.first_char(prev);
      ++tel.kwkwk_codes;
    } else {
      Error err{ErrorKind::UndefinedCode,
                "code value " + std::to_string(code) + " undefined (dictionary holds " +
                    std::to_string(dict.size()) + " codes, not the KwKwK case)"};
      err.code_index = static_cast<std::int64_t>(idx);
      err.bit_offset = code_bit_offset;
      return err;
    }

    // Mirror of the encoder's dictionary insertion; Dictionary::add
    // enforces the identical freeze (capacity) and C_MDATA (width) rules.
    // A full dictionary adds nothing and changes nothing, so once it
    // freezes the duplicate-child probe is skipped. Once the output is
    // complete no later code is emitted, so new entries only need their
    // length, not their bits.
    if (prev != kNoCode && !dict.full() &&
        dict.child(prev, entry_first) == kNoCode &&
        dict.add(prev, entry_first) != kNoCode) {
      ++tel.entries_added;
      if (!out.full()) {
        arena.add(prev, dict.length(prev), entry_first);
        assert(arena.size() == dict.size());
      }
    }

    const std::uint32_t entry_len = dict.length(code);
    if (!out.full()) {
      out.deposit(arena.expansion(code), static_cast<std::uint64_t>(entry_len) * cc);
    }
    decoded_chars += entry_len;
    if (entry_len < len_counts.size()) {
      ++len_counts[entry_len];
    } else {
      tel.expansion_chars.record(entry_len);
    }
    prev = code;
  }

  // Failures return from inside the loop, so here every code was consumed.
  tel.codes_consumed = code_count;
  for (std::size_t len = 0; len < len_counts.size(); ++len) {
    tel.expansion_chars.record_repeated(len, len_counts[len]);
  }
  const std::uint64_t decoded_bits = decoded_chars * cc;
  if (decoded_bits < original_bits) {
    Error err{ErrorKind::StreamTooShort,
              "decoded " + std::to_string(decoded_bits) + " of " +
                  std::to_string(original_bits) + " scan bits from " +
                  std::to_string(code_count) + " codes"};
    err.code_index = static_cast<std::int64_t>(code_count);
    err.bit_offset = source.tell();
    return err;
  }
  result.bits = std::move(out).take();
  result.dict_codes_used = dict.size();
  span.arg("codes", tel.codes_consumed);
  span.arg("output_bits", static_cast<std::uint64_t>(result.bits.size()));
  return result;
}

}  // namespace tdc::lzw
