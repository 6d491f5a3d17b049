#ifndef TDC_TESTS_SUPPORT_LZW_ORACLE_H
#define TDC_TESTS_SUPPORT_LZW_ORACLE_H

#include <cstdint>

#include "bits/tritvector.h"
#include "lzw/config.h"
#include "lzw/encoder.h"

namespace tdc::lzw::oracle {

/// Reference LZW encoder with dynamic don't-care assignment: the
/// straightforward form of lzw::Encoder, kept only as a test and benchmark
/// oracle. Every character is re-sliced with word()/care_word(), every probe
/// walks the child list through one tie-break switch (Lookahead reads the
/// next characters with CharCursor::at()), codes are written one bit at a
/// time and every telemetry field is counted inline, per character and per
/// code, rather than derived after the loop.
///
/// Its output — codes, code lengths, stream bytes, dictionary figures and
/// every EncoderTelemetry field — must equal lzw::Encoder's for every
/// config, tie-break and X-assignment mode. probes_fast counts the probes of
/// fully specified characters, the ones the encoder answers from its hash
/// index.
EncodeResult encode(const LzwConfig& config, Tiebreak tiebreak,
                    const bits::TritVector& input,
                    XAssignMode mode = XAssignMode::Dynamic,
                    std::uint64_t rng_seed = 1);

}  // namespace tdc::lzw::oracle

#endif  // TDC_TESTS_SUPPORT_LZW_ORACLE_H
