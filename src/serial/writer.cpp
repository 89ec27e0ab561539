#include "serial/writer.hpp"

#include <bit>
#include <cstring>

namespace cg::serial {
namespace {

// The wire is little-endian. On a little-endian host a value's memory image
// already is its wire image, so fixed-width fields and f64 vectors append
// with one bulk copy; other hosts take the per-byte path.
constexpr bool kWireIsNative = std::endian::native == std::endian::little;

template <typename T>
void put_le(Bytes& buf, T v) {
  if constexpr (kWireIsNative) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

}  // namespace

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) { put_le(buf_, v); }

void Writer::u64(std::uint64_t v) { put_le(buf_, v); }

void Writer::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::svarint(std::int64_t v) {
  // Zig-zag: maps small negative numbers to small unsigned numbers.
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::string(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::blob(std::span<const std::uint8_t> b) {
  varint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::f64_vector(std::span<const double> v) {
  varint(v.size());
  if constexpr (kWireIsNative) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size_bytes());
  } else {
    for (double x : v) f64(x);
  }
}

void Writer::raw(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

}  // namespace cg::serial
