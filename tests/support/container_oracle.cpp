// The istream container reader the library shipped before containers were
// parsed in place, kept verbatim as the reference that
// container_diff_test and fuzz_test compare lzw::try_read_image against.
#include "support/container_oracle.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.h"
#include "core/crc32.h"

namespace tdc::lzw::oracle {

namespace {

// Byte layout of both containers, pinned at compile time against the
// documented §8 table (core/contracts.h static_asserts the offsets chain).
namespace v1 = contracts::container_v1;
namespace v2 = contracts::container_v2;
namespace v3 = contracts::container_v3;

constexpr char kMagicV1[8] = {'T', 'D', 'C', 'L', 'Z', 'W', '1', '\0'};
constexpr char kMagicV2[8] = {'T', 'D', 'C', 'L', 'Z', 'W', '2', '\0'};

// Plausibility caps applied before any size-driven allocation, so a fuzzed
// header cannot demand terabytes. Real images sit far below all of them.
constexpr std::uint64_t kMaxCodeCount = 1ull << 40;
constexpr std::uint64_t kMaxOriginalBits = 1ull << 48;
constexpr std::uint32_t kMaxDictSize = 1u << 20;
constexpr std::uint32_t kMaxChunkCount = 1u << 20;
constexpr std::uint32_t kMinChunkBytes = 64;

constexpr std::uint32_t kMaxRecordPayload = 1u << 30;

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Bounded, offset-tracking reads from the input stream.
struct StreamSource {
  std::istream& in;
  std::uint64_t offset = 0;

  /// Reads exactly n bytes; false on a short read (offset then reports how
  /// many bytes the stream actually held).
  bool read(std::uint8_t* dst, std::size_t n) {
    in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::uint64_t>(in.gcount());
    offset += got;
    return got == n;
  }
};

Error truncated(ErrorKind kind, const StreamSource& src, const std::string& what) {
  Error err{kind, what};
  err.byte_offset = static_cast<std::int64_t>(src.offset);
  return err;
}

/// Shared post-header plausibility checks (both container versions).
Status check_image_header(const CompressedImage& image, std::uint64_t payload_bits) {
  const LzwConfig& c = image.config;
  if (std::string why = c.check(); !why.empty()) {
    return Error{ErrorKind::ConfigMismatch, why};
  }
  if (c.dict_size > kMaxDictSize) {
    return Error{ErrorKind::ConfigMismatch,
                 "dict_size " + std::to_string(c.dict_size) + " exceeds the container cap"};
  }
  if (image.code_count > kMaxCodeCount || image.original_bits > kMaxOriginalBits) {
    return Error{ErrorKind::ConfigMismatch, "implausible code_count / original_bits"};
  }
  // The payload must hold exactly code_count fixed-width codes — or, with
  // variable-width packing, between 1 and C_E bits per code.
  const std::uint64_t max_bits = image.code_count * c.code_bits();
  const bool consistent = c.variable_width
                              ? payload_bits >= image.code_count && payload_bits <= max_bits
                              : payload_bits == max_bits;
  if (!consistent) {
    return Error{ErrorKind::ConfigMismatch,
                 "payload of " + std::to_string(payload_bits) + " bits cannot hold " +
                     std::to_string(image.code_count) + " codes of " +
                     (c.variable_width ? "<= " : "") + std::to_string(c.code_bits()) +
                     " bits"};
  }
  if (image.original_bits > 0 && image.code_count == 0) {
    return Error{ErrorKind::ConfigMismatch, "original_bits > 0 but code_count == 0"};
  }
  return {};
}

/// Reads `payload_bytes` in bounded slabs (so a lying header cannot force a
/// giant up-front allocation) into `payload`.
Status read_payload(StreamSource& src, std::uint64_t payload_bytes,
                    std::vector<std::uint8_t>& payload) {
  constexpr std::uint64_t kSlab = 64 * 1024;
  payload.clear();
  while (payload.size() < payload_bytes) {
    const std::uint64_t want = std::min<std::uint64_t>(kSlab, payload_bytes - payload.size());
    const std::size_t base = payload.size();
    payload.resize(base + want);
    if (!src.read(payload.data() + base, static_cast<std::size_t>(want))) {
      return truncated(ErrorKind::TruncatedPayload, src,
                       "payload ends after " +
                           std::to_string(src.offset) + " container bytes (" +
                           std::to_string(payload_bytes) + " payload bytes declared)");
    }
  }
  return {};
}

// ---------------------------------------------------------------- v1 body

Result<CompressedImage> read_image_v1(StreamSource& src) {
  std::array<std::uint8_t, v1::kFixedHeaderBytes - v1::kMagicBytes> fixed;
  if (!src.read(fixed.data(), fixed.size())) {
    return truncated(ErrorKind::TruncatedHeader, src, "TDCLZW1 header is 48 bytes");
  }
  CompressedImage image;
  image.config.dict_size = get_u32(&fixed[0]);
  image.config.char_bits = get_u32(&fixed[4]);
  image.config.entry_bits = get_u32(&fixed[8]);
  image.config.variable_width = get_u32(&fixed[12]) != 0;
  image.original_bits = get_u64(&fixed[16]);
  image.code_count = get_u64(&fixed[24]);
  const std::uint64_t payload_bits = get_u64(&fixed[32]);
  image.container.version = 1;
  image.container.header_bytes = src.offset;
  image.container.payload_bytes = (payload_bits + 7) / 8;

  if (Status s = check_image_header(image, payload_bits); !s.ok()) return s.error();

  std::vector<std::uint8_t> payload;
  if (Status s = read_payload(src, image.container.payload_bytes, payload); !s.ok()) {
    return s.error();
  }
  image.stream = bits::BitWriter::from_bytes(payload.data(),
                                             static_cast<std::size_t>(payload_bits));
  return image;
}

// ---------------------------------------------------------------- v3 body

/// Payload of a version-3 (multi-codec) image: a sequence of chunk records.
/// The fixed header and chunk CRC table are already parsed and CRC-verified;
/// `image` carries the header fields. Integrity order: whole-payload CRC
/// first (record boundaries come from record headers, so framing cannot be
/// trusted before the bytes are), then the per-record CRCs localizing any
/// table/record drift, then structural and semantic consistency.
Result<CompressedImage> read_image_v3_body(StreamSource& src, CompressedImage image,
                                           std::uint64_t payload_bits,
                                           std::uint32_t payload_crc,
                                           const std::vector<std::uint8_t>& chunk_table) {
  const LzwConfig& c = image.config;
  if (std::string why = c.check(); !why.empty()) {
    return Error{ErrorKind::ConfigMismatch, why};
  }
  if (c.dict_size > kMaxDictSize) {
    return Error{ErrorKind::ConfigMismatch,
                 "dict_size " + std::to_string(c.dict_size) + " exceeds the container cap"};
  }
  if (image.original_bits > kMaxOriginalBits) {
    return Error{ErrorKind::ConfigMismatch, "implausible original_bits"};
  }
  if (payload_bits % 8 != 0) {
    return Error{ErrorKind::ConfigMismatch,
                 "multi-codec payload is byte-oriented; payload_bits must be a multiple of 8"};
  }
  if (image.code_count != image.container.chunk_count) {
    return Error{ErrorKind::ConfigMismatch,
                 "record count " + std::to_string(image.code_count) +
                     " does not match chunk_count " +
                     std::to_string(image.container.chunk_count)};
  }

  std::vector<std::uint8_t> payload;
  if (Status s = read_payload(src, image.container.payload_bytes, payload); !s.ok()) {
    return s.error();
  }
  if (crc32(payload) != payload_crc) {
    Error err{ErrorKind::PayloadCrcMismatch, "whole-payload CRC32 check failed"};
    err.byte_offset = static_cast<std::int64_t>(image.container.header_bytes);
    return err;
  }

  // Bytes are authentic; walk the record sequence.
  std::uint64_t pos = 0;
  std::uint64_t trits_total = 0;
  image.chunks.reserve(image.container.chunk_count);
  for (std::uint32_t i = 0; i < image.container.chunk_count; ++i) {
    if (payload.size() - pos < v3::kRecordHeaderBytes) {
      Error err{ErrorKind::ConfigMismatch,
                "payload ends inside the header of record " + std::to_string(i)};
      err.chunk_index = i;
      return err;
    }
    const std::uint8_t* rec = payload.data() + pos;
    ChunkRecord record;
    record.codec_id = rec[v3::kOffCodecId];
    const std::uint8_t flags = rec[v3::kOffRecordFlags];
    const std::uint32_t reserved = rec[v3::kOffReserved] | (rec[v3::kOffReserved + 1] << 8);
    record.original_trits = get_u64(rec + v3::kOffOriginalTrits);
    const std::uint32_t record_bytes = get_u32(rec + v3::kOffPayloadBytes);
    if (flags != 0 || reserved != 0) {
      Error err{ErrorKind::ConfigMismatch,
                "record " + std::to_string(i) + " sets reserved header bits"};
      err.chunk_index = i;
      return err;
    }
    if (record_bytes > kMaxRecordPayload ||
        record_bytes > payload.size() - pos - v3::kRecordHeaderBytes) {
      Error err{ErrorKind::ConfigMismatch,
                "record " + std::to_string(i) + " declares " +
                    std::to_string(record_bytes) + " payload bytes past the container"};
      err.chunk_index = i;
      return err;
    }
    const std::uint64_t whole = v3::kRecordHeaderBytes + record_bytes;
    if (crc32(rec, static_cast<std::size_t>(whole)) != get_u32(&chunk_table[4 * i])) {
      Error err{ErrorKind::ChunkCrcMismatch,
                "record " + std::to_string(i) + " does not match its CRC table entry"};
      err.chunk_index = i;
      err.byte_offset = static_cast<std::int64_t>(image.container.header_bytes + pos);
      return err;
    }
    record.payload.assign(rec + v3::kRecordHeaderBytes, rec + whole);
    trits_total += record.original_trits;
    image.chunks.push_back(std::move(record));
    pos += whole;
  }
  if (pos != payload.size()) {
    return Error{ErrorKind::ConfigMismatch,
                 std::to_string(payload.size() - pos) +
                     " payload bytes left over after the last record"};
  }
  if (trits_total != image.original_bits) {
    return Error{ErrorKind::ConfigMismatch,
                 "records expand to " + std::to_string(trits_total) +
                     " trits but the header declares " +
                     std::to_string(image.original_bits)};
  }

  image.stream = bits::BitWriter::from_bytes(payload.data(),
                                             static_cast<std::size_t>(payload_bits));
  return image;
}

// ---------------------------------------------------------------- v2 body

Result<CompressedImage> read_image_v2(StreamSource& src,
                                      const std::array<std::uint8_t, 8>& magic) {
  // Bytes [kMagicBytes, kFixedHeaderBytes) of the container; each field is
  // read through its §8 offset so the layout contract and the reader can
  // never drift apart.
  std::array<std::uint8_t, v2::kFixedHeaderBytes - v2::kMagicBytes> fixed;
  if (!src.read(fixed.data(), fixed.size())) {
    return truncated(ErrorKind::TruncatedHeader, src, "TDCLZW2 fixed header is 64 bytes");
  }
  const auto field = [&fixed](std::uint32_t offset) {
    return fixed.data() + (offset - v2::kMagicBytes);
  };
  const std::uint32_t version = get_u32(field(v2::kOffVersion));
  if (version != 2 && version != v3::kVersion) {
    Error err{ErrorKind::UnsupportedVersion,
              "container declares format version " + std::to_string(version) +
                  "; this reader supports 1, 2 and 3"};
    err.byte_offset = 8;
    return err;
  }

  CompressedImage image;
  image.config.dict_size = get_u32(field(v2::kOffDictSize));
  image.config.char_bits = get_u32(field(v2::kOffCharBits));
  image.config.entry_bits = get_u32(field(v2::kOffEntryBits));
  image.config.variable_width = (get_u32(field(v2::kOffFlags)) & 1u) != 0;
  image.original_bits = get_u64(field(v2::kOffOriginalBits));
  image.code_count = get_u64(field(v2::kOffCodeCount));
  const std::uint64_t payload_bits = get_u64(field(v2::kOffPayloadBits));
  const std::uint32_t payload_crc = get_u32(field(v2::kOffPayloadCrc));
  image.container.version = version;
  image.container.chunk_bytes = get_u32(field(v2::kOffChunkBytes));
  image.container.chunk_count = get_u32(field(v2::kOffChunkCount));
  image.container.payload_bytes = (payload_bits + 7) / 8;

  // The chunk table length comes from a yet-unverified header, so cap it
  // before allocating; the header CRC then vouches for the exact value.
  if (image.container.chunk_count > kMaxChunkCount) {
    Error err{ErrorKind::ConfigMismatch,
              "chunk table of " + std::to_string(image.container.chunk_count) +
                  " entries exceeds the container cap"};
    err.byte_offset = 60;
    return err;
  }
  std::vector<std::uint8_t> chunk_table(4ull * image.container.chunk_count);
  if (!src.read(chunk_table.data(), chunk_table.size())) {
    return truncated(ErrorKind::TruncatedHeader, src, "stream ends inside the chunk CRC table");
  }
  std::array<std::uint8_t, 4> stored_header_crc;
  if (!src.read(stored_header_crc.data(), stored_header_crc.size())) {
    return truncated(ErrorKind::TruncatedHeader, src, "stream ends before header_crc32");
  }
  image.container.header_bytes = src.offset;

  std::uint32_t crc = crc32(magic.data(), magic.size());
  crc = crc32(fixed.data(), fixed.size(), crc);
  crc = crc32(chunk_table.data(), chunk_table.size(), crc);
  if (crc != get_u32(stored_header_crc.data())) {
    Error err{ErrorKind::HeaderCrcMismatch,
              "header CRC32 check failed — the configurator block is damaged"};
    err.byte_offset = static_cast<std::int64_t>(src.offset - 4);
    return err;
  }

  // Header is authentic from here on; inconsistencies are tool-chain bugs
  // or deliberate tampering, reported as ConfigMismatch.
  if (version == v3::kVersion) {
    return read_image_v3_body(src, std::move(image), payload_bits, payload_crc,
                              chunk_table);
  }
  if (Status s = check_image_header(image, payload_bits); !s.ok()) return s.error();
  const std::uint32_t cb = image.container.chunk_bytes;
  if (cb != 0 && cb < kMinChunkBytes) {
    return Error{ErrorKind::ConfigMismatch, "chunk_bytes must be 0 or >= 64"};
  }
  const std::uint64_t expected_chunks =
      cb == 0 ? 0 : (image.container.payload_bytes + cb - 1) / cb;
  if (expected_chunks != image.container.chunk_count) {
    return Error{ErrorKind::ConfigMismatch,
                 "chunk_count " + std::to_string(image.container.chunk_count) +
                     " does not match ceil(payload_bytes / chunk_bytes) = " +
                     std::to_string(expected_chunks)};
  }

  std::vector<std::uint8_t> payload;
  if (Status s = read_payload(src, image.container.payload_bytes, payload); !s.ok()) {
    return s.error();
  }

  // Chunk CRCs first: they localize the damage to a byte range, which the
  // whole-payload CRC cannot.
  std::uint64_t corrupt_chunks = 0;
  std::int64_t first_bad = -1;
  for (std::uint64_t i = 0; i < image.container.chunk_count; ++i) {
    const std::uint64_t begin = i * cb;
    const std::uint64_t end = std::min<std::uint64_t>(begin + cb, payload.size());
    if (crc32(payload.data() + begin, static_cast<std::size_t>(end - begin)) !=
        get_u32(&chunk_table[4 * i])) {
      ++corrupt_chunks;
      if (first_bad < 0) first_bad = static_cast<std::int64_t>(i);
    }
  }
  if (corrupt_chunks > 0) {
    Error err{ErrorKind::ChunkCrcMismatch,
              std::to_string(corrupt_chunks) + " of " +
                  std::to_string(image.container.chunk_count) +
                  " payload chunks damaged (first: chunk " + std::to_string(first_bad) +
                  ", payload bytes " + std::to_string(first_bad * cb) + ".." +
                  std::to_string(std::min<std::uint64_t>((first_bad + 1) * cb,
                                                         payload.size()) - 1) +
                  ")"};
    err.chunk_index = first_bad;
    err.byte_offset =
        static_cast<std::int64_t>(image.container.header_bytes) + first_bad * cb;
    return err;
  }
  if (crc32(payload) != payload_crc) {
    Error err{ErrorKind::PayloadCrcMismatch, "whole-payload CRC32 check failed"};
    err.byte_offset = static_cast<std::int64_t>(image.container.header_bytes);
    return err;
  }

  image.stream = bits::BitWriter::from_bytes(payload.data(),
                                             static_cast<std::size_t>(payload_bits));
  return image;
}

}  // namespace

Result<CompressedImage> try_read_image(std::istream& in) {
  StreamSource src{in};
  std::array<std::uint8_t, 8> magic;
  if (!src.read(magic.data(), magic.size())) {
    return truncated(ErrorKind::TruncatedHeader, src, "stream ends inside the 8-byte magic");
  }
  if (std::memcmp(magic.data(), kMagicV1, sizeof kMagicV1) == 0) {
    return read_image_v1(src);
  }
  if (std::memcmp(magic.data(), kMagicV2, sizeof kMagicV2) == 0) {
    return read_image_v2(src, magic);
  }
  return Error{ErrorKind::BadMagic, "not a TDCLZW1/TDCLZW2 image"};
}

namespace {

/// Appends "name: got vs want" to `diff` when the two differ.
template <typename T>
void note(std::string& diff, const char* name, const T& got, const T& want) {
  if (got == want) return;
  std::ostringstream line;
  line << "\n  " << name << ": " << got << " (oracle " << want << ")";
  diff += line.str();
}

}  // namespace

::testing::AssertionResult parses_like_oracle(std::string_view bytes) {
  const Result<CompressedImage> got = lzw::try_read_image(bytes);
  std::istringstream in{std::string(bytes), std::ios::binary};
  const Result<CompressedImage> want = try_read_image(in);
  std::string diff;
  note(diff, "ok", got.ok(), want.ok());
  if (!diff.empty()) {
    return ::testing::AssertionFailure()
           << diff << "\n  parser: " << (got.ok() ? "ok" : got.error().describe())
           << "\n  oracle: " << (want.ok() ? "ok" : want.error().describe());
  }
  if (!got.ok()) {
    const Error& g = got.error();
    const Error& w = want.error();
    note(diff, "kind", std::string(to_string(g.kind)), std::string(to_string(w.kind)));
    note(diff, "message", g.message, w.message);
    note(diff, "chunk_index", g.chunk_index, w.chunk_index);
    note(diff, "code_index", g.code_index, w.code_index);
    note(diff, "bit_offset", g.bit_offset, w.bit_offset);
    note(diff, "byte_offset", g.byte_offset, w.byte_offset);
  } else {
    const CompressedImage& g = got.value();
    const CompressedImage& w = want.value();
    note(diff, "dict_size", g.config.dict_size, w.config.dict_size);
    note(diff, "char_bits", g.config.char_bits, w.config.char_bits);
    note(diff, "entry_bits", g.config.entry_bits, w.config.entry_bits);
    note(diff, "variable_width", g.config.variable_width, w.config.variable_width);
    note(diff, "original_bits", g.original_bits, w.original_bits);
    note(diff, "code_count", g.code_count, w.code_count);
    note(diff, "version", g.container.version, w.container.version);
    note(diff, "chunk_bytes", g.container.chunk_bytes, w.container.chunk_bytes);
    note(diff, "chunk_count", g.container.chunk_count, w.container.chunk_count);
    note(diff, "header_bytes", g.container.header_bytes, w.container.header_bytes);
    note(diff, "payload_bytes", g.container.payload_bytes, w.container.payload_bytes);
    note(diff, "stream bit_count", g.stream.bit_count(), w.stream.bit_count());
    note(diff, "stream bytes equal", g.stream.bytes() == w.stream.bytes(), true);
    note(diff, "records", g.chunks.size(), w.chunks.size());
    for (std::size_t i = 0; i < g.chunks.size() && i < w.chunks.size(); ++i) {
      const ChunkRecord& gr = g.chunks[i];
      const ChunkRecord& wr = w.chunks[i];
      const bool same = gr.codec_id == wr.codec_id &&
                        gr.original_trits == wr.original_trits && gr.payload == wr.payload;
      note(diff, ("record " + std::to_string(i) + " equal").c_str(), same, true);
    }
  }
  if (diff.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "parser and oracle disagree:" << diff;
}

}  // namespace tdc::lzw::oracle
