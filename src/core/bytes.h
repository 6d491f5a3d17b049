#ifndef TDC_CORE_BYTES_H
#define TDC_CORE_BYTES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

namespace tdc::core {

// The one little-endian byte layer under every wire format in the
// repository: container headers and chunk records (lzw/stream_io), codec
// chunk payloads (codec/) and the daemon's frame length prefix
// (service/framing). Widths are explicit: u8, u16, u32 or u64.
template <typename T>
inline constexpr bool kWireWord =
    std::is_same_v<T, std::uint8_t> || std::is_same_v<T, std::uint16_t> ||
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;

/// Appends `v` to `out` (a std::string or std::vector<std::uint8_t>) as
/// sizeof(T) little-endian bytes. T is never deduced: `put<std::uint32_t>`.
template <typename T, typename Buffer>
void put(Buffer& out, std::type_identity_t<T> v) {
  static_assert(kWireWord<T>, "put: u8, u16, u32 or u64 only");
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[at + i] = static_cast<typename Buffer::value_type>(v >> (8 * i));
  }
}

/// Reads a little-endian T from p[0, sizeof(T)); the caller holds the bytes.
template <typename T>
T load(const std::uint8_t* p) {
  static_assert(kWireWord<T>, "load: u8, u16, u32 or u64 only");
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(T{p[i]} << (8 * i));
  return v;
}

inline std::span<const std::uint8_t> byte_span(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Bounds-checked sequential reads over untrusted bytes. A read on short
/// input returns false and leaves the position where it was: it never
/// moves past the end, and a declared size is checked against remaining()
/// before anything is sized from it.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// A little-endian T, as wide as `v`.
  template <typename T>
  bool get(T& v) {
    if (remaining() < sizeof(T)) return false;
    v = load<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return true;
  }

  /// The next `n` bytes, as a view into the input.
  bool take(std::uint64_t n, std::span<const std::uint8_t>& out) {
    if (remaining() < n) return false;
    out = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return true;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tdc::core

#endif  // TDC_CORE_BYTES_H
