#include "lzw/stream_io.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "core/bytes.h"
#include "core/contracts.h"
#include "core/crc32.h"
#include "core/file_io.h"

namespace tdc::lzw {

namespace {

using Bytes = std::span<const std::uint8_t>;

// Byte layout of every container version, pinned at compile time against
// the documented §8 table (core/contracts.h static_asserts the offsets chain).
namespace v1 = contracts::container_v1;
namespace v2 = contracts::container_v2;
namespace v3 = contracts::container_v3;

constexpr char kMagicV1[8] = {'T', 'D', 'C', 'L', 'Z', 'W', '1', '\0'};
constexpr char kMagicV2[8] = {'T', 'D', 'C', 'L', 'Z', 'W', '2', '\0'};

// Plausibility caps on header fields. The reader never sizes anything from
// a declared length it has not checked against the bytes it holds; these
// caps bound what a well-formed but hostile header can ask the decoders for.
constexpr std::uint64_t kMaxCodeCount = 1ull << 40;
constexpr std::uint64_t kMaxOriginalBits = 1ull << 48;
constexpr std::uint32_t kMaxDictSize = 1u << 20;
constexpr std::uint32_t kMaxChunkCount = 1u << 20;
constexpr std::uint32_t kMinChunkBytes = 64;
constexpr std::uint32_t kMaxRecordPayload = 1u << 30;

// ---------------------------------------------------------------- writing

/// The fixed header and CRC table versions 2 and 3 share, closed by
/// header_crc32 over every byte before it. `out` must be empty.
void put_header(std::string& out, std::uint32_t version, const LzwConfig& config,
                std::uint64_t original_bits, std::uint64_t code_count,
                std::uint64_t payload_bits, std::uint32_t payload_crc,
                std::uint32_t chunk_field, const std::vector<std::uint32_t>& crcs) {
  out.append(kMagicV2, sizeof kMagicV2);
  core::put<std::uint32_t>(out, version);
  core::put<std::uint32_t>(out, config.dict_size);
  core::put<std::uint32_t>(out, config.char_bits);
  core::put<std::uint32_t>(out, config.entry_bits);
  core::put<std::uint32_t>(out, config.variable_width ? 1u : 0u);
  core::put<std::uint64_t>(out, original_bits);
  core::put<std::uint64_t>(out, code_count);
  core::put<std::uint64_t>(out, payload_bits);
  core::put<std::uint32_t>(out, payload_crc);
  core::put<std::uint32_t>(out, chunk_field);
  core::put<std::uint32_t>(out, static_cast<std::uint32_t>(crcs.size()));
  for (const std::uint32_t crc : crcs) core::put<std::uint32_t>(out, crc);
  core::put<std::uint32_t>(out, crc32(out.data(), out.size()));
}

/// A v3 chunk record's 16-byte header (core/contracts.h `container_v3`).
void put_record_header(std::string& out, const ChunkRecord& r) {
  core::put<std::uint8_t>(out, r.codec_id);
  core::put<std::uint8_t>(out, 0);   // record flags (reserved)
  core::put<std::uint16_t>(out, 0);  // reserved
  core::put<std::uint64_t>(out, r.original_trits);
  core::put<std::uint32_t>(out, static_cast<std::uint32_t>(r.payload.size()));
}

void write_all(std::ostream& out, const std::string& bytes, const char* who) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) Error{ErrorKind::IoError, std::string(who) + ": stream error"}.raise();
}

// ---------------------------------------------------------------- reading

/// What a container header declares, before any payload byte is trusted.
struct Header {
  CompressedImage image;
  std::uint64_t payload_bits = 0;
  std::uint32_t payload_crc = 0;  ///< v2/v3
  Bytes chunk_table;              ///< v2/v3: one CRC32 per chunk or record
};

/// A short input: `held` is how many container bytes there were.
Error truncated(ErrorKind kind, std::size_t held, const std::string& what) {
  Error err{kind, what};
  err.byte_offset = static_cast<std::int64_t>(held);
  return err;
}

Result<Header> read_header_v1(core::ByteReader& r, std::size_t held) {
  Header h;
  CompressedImage& image = h.image;
  std::uint32_t flags = 0;
  if (!r.get(image.config.dict_size) || !r.get(image.config.char_bits) ||
      !r.get(image.config.entry_bits) || !r.get(flags) || !r.get(image.original_bits) ||
      !r.get(image.code_count) || !r.get(h.payload_bits)) {
    return truncated(ErrorKind::TruncatedHeader, held, "TDCLZW1 header is 48 bytes");
  }
  image.config.variable_width = flags != 0;
  image.container.version = 1;
  image.container.header_bytes = r.position();
  return h;
}

/// Versions 2 and 3 share the fixed header, the CRC table and header_crc32.
Result<Header> read_header_v2(core::ByteReader& r, Bytes bytes) {
  // Each fixed-header field is read through its §8 offset, so the layout
  // contract and the reader can never drift apart.
  Bytes fixed;
  if (!r.take(v2::kFixedHeaderBytes - v2::kMagicBytes, fixed)) {
    return truncated(ErrorKind::TruncatedHeader, bytes.size(),
                     "TDCLZW2 fixed header is 64 bytes");
  }
  const auto u32 = [&bytes](std::uint32_t at) { return core::load<std::uint32_t>(&bytes[at]); };
  const auto u64 = [&bytes](std::uint32_t at) { return core::load<std::uint64_t>(&bytes[at]); };
  const std::uint32_t version = u32(v2::kOffVersion);
  if (version != 2 && version != v3::kVersion) {
    Error err{ErrorKind::UnsupportedVersion,
              "container declares format version " + std::to_string(version) +
                  "; this reader supports 1, 2 and 3"};
    err.byte_offset = v2::kOffVersion;
    return err;
  }

  Header h;
  CompressedImage& image = h.image;
  image.config.dict_size = u32(v2::kOffDictSize);
  image.config.char_bits = u32(v2::kOffCharBits);
  image.config.entry_bits = u32(v2::kOffEntryBits);
  image.config.variable_width = (u32(v2::kOffFlags) & 1u) != 0;
  image.original_bits = u64(v2::kOffOriginalBits);
  image.code_count = u64(v2::kOffCodeCount);
  h.payload_bits = u64(v2::kOffPayloadBits);
  h.payload_crc = u32(v2::kOffPayloadCrc);
  image.container.version = version;
  image.container.chunk_bytes = u32(v2::kOffChunkBytes);
  image.container.chunk_count = u32(v2::kOffChunkCount);

  // The chunk table length comes from a yet-unverified header: the cap
  // keeps a hostile count from reaching the decoders; the header CRC then
  // vouches for the exact value.
  if (image.container.chunk_count > kMaxChunkCount) {
    Error err{ErrorKind::ConfigMismatch,
              "chunk table of " + std::to_string(image.container.chunk_count) +
                  " entries exceeds the container cap"};
    err.byte_offset = v2::kOffChunkCount;
    return err;
  }
  if (!r.take(4ull * image.container.chunk_count, h.chunk_table)) {
    return truncated(ErrorKind::TruncatedHeader, bytes.size(),
                     "stream ends inside the chunk CRC table");
  }
  std::uint32_t stored_header_crc = 0;
  if (!r.get(stored_header_crc)) {
    return truncated(ErrorKind::TruncatedHeader, bytes.size(),
                     "stream ends before header_crc32");
  }
  image.container.header_bytes = r.position();
  if (crc32(bytes.data(), r.position() - 4) != stored_header_crc) {
    Error err{ErrorKind::HeaderCrcMismatch,
              "header CRC32 check failed — the configurator block is damaged"};
    err.byte_offset = static_cast<std::int64_t>(r.position() - 4);
    return err;
  }
  return h;
}

/// The header's own consistency, judged before any payload byte is read.
/// The config, dictionary cap and count caps hold for every version. A v2
/// header is authentic by its CRC, so an inconsistency is a tool-chain bug
/// or deliberate tampering; every one is a ConfigMismatch.
Status check_header(const Header& h) {
  const CompressedImage& image = h.image;
  const LzwConfig& c = image.config;
  const auto mismatch = [](std::string what) {
    return Error{ErrorKind::ConfigMismatch, std::move(what)};
  };
  if (std::string why = c.check(); !why.empty()) return mismatch(why);
  if (c.dict_size > kMaxDictSize) {
    return mismatch("dict_size " + std::to_string(c.dict_size) + " exceeds the container cap");
  }
  if (image.code_count > kMaxCodeCount || image.original_bits > kMaxOriginalBits) {
    return mismatch("implausible code_count / original_bits");
  }
  if (image.multi_codec()) {
    if (h.payload_bits % 8 != 0) {
      return mismatch(
          "multi-codec payload is byte-oriented; payload_bits must be a multiple of 8");
    }
    if (image.code_count != image.container.chunk_count) {
      return mismatch("record count " + std::to_string(image.code_count) +
                      " does not match chunk_count " +
                      std::to_string(image.container.chunk_count));
    }
    return {};
  }
  // One LZW code stream: exactly code_count fixed-width codes — or, with
  // variable-width packing, between 1 and C_E bits per code.
  const std::uint64_t max_bits = image.code_count * c.code_bits();
  if (c.variable_width ? h.payload_bits < image.code_count || h.payload_bits > max_bits
                       : h.payload_bits != max_bits) {
    return mismatch("payload of " + std::to_string(h.payload_bits) + " bits cannot hold " +
                    std::to_string(image.code_count) + " codes of " +
                    (c.variable_width ? "<= " : "") + std::to_string(c.code_bits()) +
                    " bits");
  }
  if (image.original_bits > 0 && image.code_count == 0) {
    return mismatch("original_bits > 0 but code_count == 0");
  }
  const std::uint32_t cb = image.container.chunk_bytes;
  if (image.container.version == 1) return {};
  if (cb != 0 && cb < kMinChunkBytes) return mismatch("chunk_bytes must be 0 or >= 64");
  const std::uint64_t expected_chunks =
      cb == 0 ? 0 : (image.container.payload_bytes + cb - 1) / cb;
  if (expected_chunks != image.container.chunk_count) {
    return mismatch("chunk_count " + std::to_string(image.container.chunk_count) +
                    " does not match ceil(payload_bytes / chunk_bytes) = " +
                    std::to_string(expected_chunks));
  }
  return {};
}

/// v2: chunk CRCs first, since they localize the damage to a byte range,
/// which the whole-payload CRC cannot.
Status check_chunk_crcs(const Header& h, Bytes payload) {
  const ContainerInfo& c = h.image.container;
  const std::uint64_t cb = c.chunk_bytes;
  std::uint64_t corrupt_chunks = 0;
  std::int64_t first_bad = -1;
  for (std::uint64_t i = 0; i < c.chunk_count; ++i) {
    const std::uint64_t begin = i * cb;
    const std::uint64_t end = std::min<std::uint64_t>(begin + cb, payload.size());
    if (crc32(payload.data() + begin, static_cast<std::size_t>(end - begin)) !=
        core::load<std::uint32_t>(&h.chunk_table[4 * i])) {
      ++corrupt_chunks;
      if (first_bad < 0) first_bad = static_cast<std::int64_t>(i);
    }
  }
  if (corrupt_chunks == 0) return {};
  const auto first = static_cast<std::uint64_t>(first_bad);
  Error err{ErrorKind::ChunkCrcMismatch,
            std::to_string(corrupt_chunks) + " of " + std::to_string(c.chunk_count) +
                " payload chunks damaged (first: chunk " + std::to_string(first) +
                ", payload bytes " + std::to_string(first * cb) + ".." +
                std::to_string(std::min<std::uint64_t>((first + 1) * cb, payload.size()) - 1) +
                ")"};
  err.chunk_index = first_bad;
  err.byte_offset = static_cast<std::int64_t>(c.header_bytes + first * cb);
  return err;
}

/// v3: the payload is authentic by its CRC; walk the record sequence. The
/// per-record CRCs localize any table/record drift, then structure and
/// trit totals are checked.
Status read_records(Header& h, Bytes payload) {
  CompressedImage& image = h.image;
  core::ByteReader records(payload);
  std::uint64_t trits_total = 0;
  image.chunks.reserve(std::min<std::size_t>(image.container.chunk_count,
                                             payload.size() / v3::kRecordHeaderBytes));
  for (std::uint32_t i = 0; i < image.container.chunk_count; ++i) {
    const std::size_t at = records.position();
    Error err{ErrorKind::ConfigMismatch, "record " + std::to_string(i)};
    err.chunk_index = i;
    Bytes head;
    Bytes body;
    if (!records.take(v3::kRecordHeaderBytes, head)) {
      err.message = "payload ends inside the header of record " + std::to_string(i);
      return err;
    }
    ChunkRecord record;
    record.codec_id = head[v3::kOffCodecId];
    const std::uint8_t flags = head[v3::kOffRecordFlags];
    const auto reserved = core::load<std::uint16_t>(&head[v3::kOffReserved]);
    record.original_trits = core::load<std::uint64_t>(&head[v3::kOffOriginalTrits]);
    const auto record_bytes = core::load<std::uint32_t>(&head[v3::kOffPayloadBytes]);
    if (flags != 0 || reserved != 0) {
      err.message += " sets reserved header bits";
      return err;
    }
    if (record_bytes > kMaxRecordPayload || !records.take(record_bytes, body)) {
      err.message += " declares " + std::to_string(record_bytes) +
                     " payload bytes past the container";
      return err;
    }
    if (crc32(head.data(), head.size() + body.size()) !=
        core::load<std::uint32_t>(&h.chunk_table[4 * i])) {
      err.kind = ErrorKind::ChunkCrcMismatch;
      err.message += " does not match its CRC table entry";
      err.byte_offset = static_cast<std::int64_t>(image.container.header_bytes + at);
      return err;
    }
    record.payload.assign(body.begin(), body.end());
    trits_total += record.original_trits;
    image.chunks.push_back(std::move(record));
  }
  if (!records.exhausted()) {
    return Error{ErrorKind::ConfigMismatch, std::to_string(records.remaining()) +
                                                " payload bytes left over after the last record"};
  }
  if (trits_total != image.original_bits) {
    return Error{ErrorKind::ConfigMismatch,
                 "records expand to " + std::to_string(trits_total) +
                     " trits but the header declares " + std::to_string(image.original_bits)};
  }
  return {};
}

/// The payload against what the header declared: v1 has nothing to check;
/// v2 checks its chunk CRCs, then the whole-payload CRC; v3 checks the
/// whole-payload CRC first (record boundaries come from record headers, so
/// framing cannot be trusted before the bytes are), then reads the records.
Status check_payload(Header& h, Bytes payload) {
  const ContainerInfo& c = h.image.container;
  if (c.version == 1) return {};
  if (c.version == 2) {
    if (Status s = check_chunk_crcs(h, payload); !s.ok()) return s;
  }
  if (crc32(payload.data(), payload.size()) != h.payload_crc) {
    Error err{ErrorKind::PayloadCrcMismatch, "whole-payload CRC32 check failed"};
    err.byte_offset = static_cast<std::int64_t>(c.header_bytes);
    return err;
  }
  return c.version == v3::kVersion ? read_records(h, payload) : Status{};
}

}  // namespace

// ---------------------------------------------------------------- writers

std::string image_bytes(const EncodeResult& encoded, const ContainerOptions& options) {
  TDC_REQUIRE(options.version == 1 || options.version == 2,
              "write_image: unknown container version " +
                  std::to_string(options.version));
  TDC_REQUIRE(options.version == 1 || options.chunk_bytes == 0 ||
                  options.chunk_bytes >= kMinChunkBytes,
              "write_image: chunk_bytes must be 0 or >= 64");

  const std::vector<std::uint8_t>& payload = encoded.stream.bytes();
  std::string out;
  if (options.version == 1) {
    out.reserve(v1::kFixedHeaderBytes + payload.size());
    out.append(kMagicV1, sizeof kMagicV1);
    core::put<std::uint32_t>(out, encoded.config.dict_size);
    core::put<std::uint32_t>(out, encoded.config.char_bits);
    core::put<std::uint32_t>(out, encoded.config.entry_bits);
    core::put<std::uint32_t>(out, encoded.config.variable_width ? 1u : 0u);
    core::put<std::uint64_t>(out, encoded.original_bits);
    core::put<std::uint64_t>(out, encoded.codes.size());
    core::put<std::uint64_t>(out, encoded.stream.bit_count());
  } else {
    const std::uint32_t cb = options.chunk_bytes;
    const std::uint64_t chunk_count =
        cb == 0 ? 0 : (static_cast<std::uint64_t>(payload.size()) + cb - 1) / cb;
    std::vector<std::uint32_t> chunk_crcs;
    chunk_crcs.reserve(chunk_count);
    for (std::uint64_t i = 0; i < chunk_count; ++i) {
      const std::uint64_t begin = i * cb;
      const std::uint64_t end = std::min<std::uint64_t>(begin + cb, payload.size());
      chunk_crcs.push_back(
          crc32(payload.data() + begin, static_cast<std::size_t>(end - begin)));
    }
    out.reserve(v2::kFixedHeaderBytes + 4 * chunk_count + 4 + payload.size());
    put_header(out, 2, encoded.config, encoded.original_bits, encoded.codes.size(),
               encoded.stream.bit_count(), crc32(payload), cb, chunk_crcs);
  }
  out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return out;
}

std::string image_v3_bytes(const LzwConfig& config, std::uint64_t original_bits,
                           std::uint32_t chunk_trits, const std::vector<ChunkRecord>& chunks) {
  TDC_REQUIRE(chunks.size() <= kMaxChunkCount,
              "write_image_v3: record count exceeds the container cap");
  std::uint64_t trits_total = 0;
  for (const ChunkRecord& r : chunks) {
    TDC_REQUIRE(r.payload.size() <= kMaxRecordPayload,
                "write_image_v3: record payload exceeds the container cap");
    trits_total += r.original_trits;
  }
  TDC_REQUIRE(trits_total == original_bits,
              "write_image_v3: records expand to " + std::to_string(trits_total) +
                  " trits, not the declared " + std::to_string(original_bits));

  // The header carries CRCs of the records that follow it: take them over
  // each record header and body in place, then write header and records.
  std::vector<std::uint32_t> record_crcs;
  record_crcs.reserve(chunks.size());
  std::uint32_t payload_crc = 0;
  std::uint64_t payload_bytes = 0;
  std::string head;
  for (const ChunkRecord& r : chunks) {
    head.clear();
    put_record_header(head, r);
    record_crcs.push_back(
        crc32(r.payload.data(), r.payload.size(), crc32(head.data(), head.size())));
    payload_crc = crc32(r.payload.data(), r.payload.size(),
                        crc32(head.data(), head.size(), payload_crc));
    payload_bytes += head.size() + r.payload.size();
  }
  std::string out;
  out.reserve(v2::kFixedHeaderBytes + 4 * chunks.size() + 4 + payload_bytes);
  put_header(out, v3::kVersion, config, original_bits,
             chunks.size(),  // code_count repeats the record count
             payload_bytes * 8, payload_crc, chunk_trits, record_crcs);
  for (const ChunkRecord& r : chunks) {
    put_record_header(out, r);
    out.append(reinterpret_cast<const char*>(r.payload.data()), r.payload.size());
  }
  return out;
}

void write_image(std::ostream& out, const EncodeResult& encoded,
                 const ContainerOptions& options) {
  write_all(out, image_bytes(encoded, options), "write_image");
}

void write_image_v3(std::ostream& out, const LzwConfig& config,
                    std::uint64_t original_bits, std::uint32_t chunk_trits,
                    const std::vector<ChunkRecord>& chunks) {
  write_all(out, image_v3_bytes(config, original_bits, chunk_trits, chunks),
            "write_image_v3");
}

void write_image_file(const std::string& path, const EncodeResult& encoded,
                      const ContainerOptions& options) {
  core::write_whole(path, image_bytes(encoded, options)).ok_or_throw();
}

// ---------------------------------------------------------------- readers

Result<CompressedImage> try_read_image(std::span<const std::uint8_t> bytes) {
  core::ByteReader r(bytes);
  Bytes magic;
  if (!r.take(sizeof kMagicV1, magic)) {
    return truncated(ErrorKind::TruncatedHeader, bytes.size(),
                     "stream ends inside the 8-byte magic");
  }
  const bool v1 = std::memcmp(magic.data(), kMagicV1, sizeof kMagicV1) == 0;
  if (!v1 && std::memcmp(magic.data(), kMagicV2, sizeof kMagicV2) != 0) {
    return Error{ErrorKind::BadMagic, "not a TDCLZW1/TDCLZW2 image"};
  }
  Result<Header> header = v1 ? read_header_v1(r, bytes.size()) : read_header_v2(r, bytes);
  if (!header.ok()) return header.error();
  Header& h = header.value();
  h.image.container.payload_bytes = (h.payload_bits + 7) / 8;
  if (Status s = check_header(h); !s.ok()) return s.error();

  // Every size above is checked; only now is the payload taken, as a view
  // of the bytes held.
  Bytes payload;
  if (!r.take(h.image.container.payload_bytes, payload)) {
    return truncated(ErrorKind::TruncatedPayload, bytes.size(),
                     "payload ends after " + std::to_string(bytes.size()) +
                         " container bytes (" +
                         std::to_string(h.image.container.payload_bytes) +
                         " payload bytes declared)");
  }
  if (Status s = check_payload(h, payload); !s.ok()) return s.error();
  h.image.stream = bits::BitWriter::from_bytes(payload.data(),
                                               static_cast<std::size_t>(h.payload_bits));
  return std::move(h.image);
}

Result<CompressedImage> try_read_image(std::istream& in) {
  std::string bytes;
  std::array<char, 64 * 1024> block;
  while (in.read(block.data(), block.size()), in.gcount() > 0) {
    bytes.append(block.data(), static_cast<std::size_t>(in.gcount()));
  }
  return try_read_image(std::string_view(bytes));
}

CompressedImage read_image(std::istream& in) {
  return try_read_image(in).value_or_throw();
}

Result<CompressedImage> try_read_image_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{ErrorKind::IoError, "read_image_file: cannot open " + path};
  return try_read_image(in);
}

CompressedImage read_image_file(const std::string& path) {
  return try_read_image_file(path).value_or_throw();
}

}  // namespace tdc::lzw
