#ifndef TDC_TESTS_SUPPORT_CONTAINER_ORACLE_H
#define TDC_TESTS_SUPPORT_CONTAINER_ORACLE_H

#include <gtest/gtest.h>

#include <iosfwd>
#include <string_view>

#include "core/error.h"
#include "lzw/stream_io.h"

namespace tdc::lzw::oracle {

/// Reference container reader: the istream form lzw::try_read_image had
/// before containers were parsed in place. It pulls the header through
/// bounded stream reads and the payload in 64 KiB slabs into a vector of
/// its own.
///
/// On damaged and truncated containers, lzw::try_read_image must agree with
/// it: on success the same config, counts, ContainerInfo, stream bytes and
/// chunk records; on failure the same kind, message, chunk_index,
/// code_index, bit_offset and byte_offset.
Result<CompressedImage> try_read_image(std::istream& in);

/// Parses `bytes` with lzw::try_read_image and with the oracle above, and
/// succeeds when the two agree on every field listed there; the failure
/// message names each field that differs.
::testing::AssertionResult parses_like_oracle(std::string_view bytes);

}  // namespace tdc::lzw::oracle

#endif  // TDC_TESTS_SUPPORT_CONTAINER_ORACLE_H
