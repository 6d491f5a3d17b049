#ifndef TDC_LZW_DECODER_H
#define TDC_LZW_DECODER_H

#include <cstdint>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"
#include "core/error.h"
#include "lzw/config.h"
#include "lzw/dictionary.h"
#include "lzw/telemetry.h"

namespace tdc::lzw {

/// Output of a decompression run.
struct DecodeResult {
  /// The reconstructed, fully specified scan stream, truncated to the
  /// original (unpadded) bit count. Decoded bits past that count (the X
  /// padding of the final character) are dropped.
  bits::TritVector bits;

  /// Codes defined in the dictionary at the end (including literals);
  /// equals the encoder's count, or exceeds it by one trailing entry
  /// (the decoder also learns from the final code).
  std::uint32_t dict_codes_used = 0;

  /// Hot-path telemetry: codes consumed, KwKwK hits, expansion-length
  /// histogram. Always collected (plain local increments, no locks);
  /// surfaced by `tdc_cli stats` on a container.
  DecoderTelemetry telemetry;
};

/// Software reference model of the LZW decompressor (paper §4 / Fig. 4),
/// including the classic "code not yet defined" (KwKwK) special case and the
/// same dictionary-limit and entry-width freeze rules as the encoder, so the
/// two dictionaries evolve in lockstep.
///
/// Like the paper's Fig. 5 dictionary RAM, the decoder keeps every code's
/// full expansion flat: when an entry is added its bits are built once from
/// the parent's (a copy plus one character), so decoding a code is one
/// shift-merge of those words into the output value plane, with no
/// parent-chain walk and no per-character buffer.
///
/// Every decode has two entry forms: a strict `try_*` path returning
/// `Result<DecodeResult>` with full position context (code index, payload
/// bit offset) on corrupt input, and a thin throwing wrapper preserving the
/// historical std::invalid_argument contract. The strict path is
/// bounds-checked throughout — no read past the end of the code stream, no
/// UB on any input.
class Decoder {
 public:
  explicit Decoder(const LzwConfig& config) : config_(config) { config_.validate(); }

  /// Strict decode of an explicit code sequence. `original_bits` trims the X
  /// padding the encoder added to the final character. On failure the Error
  /// carries the offending code index (UndefinedCode) or the decoded versus
  /// expected bit counts (StreamTooShort).
  Result<DecodeResult> try_decode(const std::vector<std::uint32_t>& codes,
                                  std::uint64_t original_bits) const;

  /// Strict decode of `code_count` codes from a tester bit stream — fixed
  /// C_E-bit codes, or growing-width codes when config.variable_width is set
  /// (the width follows the dictionary fill level, in lockstep with the
  /// encoder). Errors additionally carry the payload bit offset at which the
  /// failing code started.
  Result<DecodeResult> try_decode_stream(bits::BitReader& reader,
                                         std::size_t code_count,
                                         std::uint64_t original_bits) const;

  /// Throwing wrapper over try_decode (DecodeError, i.e.
  /// std::invalid_argument, on a corrupt stream).
  DecodeResult decode(const std::vector<std::uint32_t>& codes,
                      std::uint64_t original_bits) const {
    return try_decode(codes, original_bits).value_or_throw();
  }

  /// Throwing wrapper over try_decode_stream.
  DecodeResult decode_stream(bits::BitReader& reader, std::size_t code_count,
                             std::uint64_t original_bits) const {
    return try_decode_stream(reader, code_count, original_bits).value_or_throw();
  }

 private:
  /// Shared decode loop over a code source: `source.fetch(width)` supplies
  /// the next code (nullopt = source exhausted), where `width` is the bit
  /// width a stream reader must consume, and `source.tell()` reports the
  /// current payload bit offset for error context, or -1 when decoding from
  /// an explicit code list. A template parameter, so the per-code fetch
  /// inlines.
  template <class Source>
  Result<DecodeResult> decode_impl(Source& source, std::size_t code_count,
                                   std::uint64_t original_bits) const;

  LzwConfig config_;
};

}  // namespace tdc::lzw

#endif  // TDC_LZW_DECODER_H
