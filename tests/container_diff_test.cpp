// The in-place container parser against the istream reader it replaced
// (tests/support/container_oracle): every golden v1/v2 file and a v3
// container built here, cut at every length and flipped at every bit, must
// parse to the same image or fail with the same typed, positioned error.
// Also pins the byte layer under the parser: core::put / core::load at
// every width, and a core::ByteReader that never reads past its input.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "container_golden.h"
#include "core/bytes.h"
#include "lzw/stream_io.h"
#include "support/container_oracle.h"

namespace tdc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every golden file plus a v3 container with empty, small and multi-byte
/// records under distinct codec ids.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const golden::Case& c : golden::cases()) {
    for (const std::uint32_t version : {1u, 2u}) {
      const std::string name = golden::file_name(c, version);
      out.emplace_back(name, read_file(std::string(TDC_TEST_DATA_DIR) + "/" + name));
    }
  }
  std::vector<lzw::ChunkRecord> records;
  records.push_back({1, 300, {0x12, 0x34, 0x56, 0x78, 0x9a}});
  records.push_back({3, 0, {}});
  records.push_back({6, 1200, std::vector<std::uint8_t>(150, 0xa5)});
  records.push_back({2, 77, {0xff}});
  out.emplace_back("built.v3", lzw::image_v3_bytes(golden::config(true), 1577, 1024, records));
  return out;
}

TEST(ContainerDiff, CorpusParsesLikeTheOracle) {
  for (const auto& [name, bytes] : corpus()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(lzw::try_read_image(bytes).ok());
    EXPECT_TRUE(lzw::oracle::parses_like_oracle(bytes));
    // Trailing bytes after a container are ignored by both readers.
    EXPECT_TRUE(lzw::oracle::parses_like_oracle(bytes + "trailing"));
  }
}

TEST(ContainerDiff, EveryTruncationMatchesTheOracle) {
  for (const auto& [name, bytes] : corpus()) {
    SCOPED_TRACE(name);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      ASSERT_TRUE(lzw::oracle::parses_like_oracle(std::string_view(bytes).substr(0, len)))
          << "truncated to " << len << " bytes";
    }
  }
}

TEST(ContainerDiff, EverySingleBitFlipMatchesTheOracle) {
  for (const auto& [name, bytes] : corpus()) {
    SCOPED_TRACE(name);
    std::string bad = bytes;
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      const char mask = static_cast<char>(1u << (bit % 8));
      bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ mask);
      ASSERT_TRUE(lzw::oracle::parses_like_oracle(bad)) << "flip of bit " << bit;
      bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ mask);
    }
  }
}

// ---------------------------------------------------------------- byte layer

TEST(ByteReader, ReadsLittleEndianAtEveryWidth) {
  std::string bytes;
  core::put<std::uint8_t>(bytes, 0x01);
  core::put<std::uint16_t>(bytes, 0x0302);
  core::put<std::uint32_t>(bytes, 0x07060504u);
  core::put<std::uint64_t>(bytes, 0x0f0e0d0c0b0a0908ull);
  ASSERT_EQ(bytes.size(), 15u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(bytes[i]), i + 1);
  }
  std::vector<std::uint8_t> same;
  core::put<std::uint8_t>(same, 0x01);
  core::put<std::uint16_t>(same, 0x0302);
  core::put<std::uint32_t>(same, 0x07060504u);
  core::put<std::uint64_t>(same, 0x0f0e0d0c0b0a0908ull);
  EXPECT_TRUE(std::equal(same.begin(), same.end(), core::byte_span(bytes).begin()));

  core::ByteReader r(core::byte_span(bytes));
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  ASSERT_TRUE(r.get(u8) && r.get(u16) && r.get(u32) && r.get(u64));
  EXPECT_EQ(u8, 0x01);
  EXPECT_EQ(u16, 0x0302);
  EXPECT_EQ(u32, 0x07060504u);
  EXPECT_EQ(u64, 0x0f0e0d0c0b0a0908ull);
  EXPECT_TRUE(r.exhausted());
}

/// A short read returns false, leaves the value and the position alone.
template <typename T>
void expect_short_reads_hold_position() {
  const std::vector<std::uint8_t> bytes(sizeof(T) - 1, 0xee);
  for (std::size_t start = 0; start <= bytes.size(); ++start) {
    core::ByteReader r(bytes);
    std::span<const std::uint8_t> skipped;
    ASSERT_TRUE(r.take(start, skipped));
    T v = 42;
    EXPECT_FALSE(r.get(v)) << sizeof(T) << "-byte read at " << start;
    EXPECT_EQ(v, T{42});
    EXPECT_EQ(r.position(), start);
    EXPECT_EQ(r.remaining(), bytes.size() - start);
  }
}

TEST(ByteReader, ShortReadAtEveryWidthLeavesThePosition) {
  expect_short_reads_hold_position<std::uint16_t>();
  expect_short_reads_hold_position<std::uint32_t>();
  expect_short_reads_hold_position<std::uint64_t>();
  // A u8 read is short only on empty input.
  core::ByteReader empty(std::span<const std::uint8_t>{});
  std::uint8_t u8 = 7;
  EXPECT_FALSE(empty.get(u8));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(empty.position(), 0u);
}

TEST(ByteReader, ShortTakeLeavesThePosition) {
  const std::vector<std::uint8_t> bytes(10, 0);
  core::ByteReader r(bytes);
  std::span<const std::uint8_t> view;
  ASSERT_TRUE(r.take(4, view));
  EXPECT_EQ(view.size(), 4u);
  EXPECT_FALSE(r.take(7, view));
  EXPECT_FALSE(r.take(~std::uint64_t{0}, view));  // a hostile declared size
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(r.position(), 4u);
  ASSERT_TRUE(r.take(6, view));
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace tdc
