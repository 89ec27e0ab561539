#include "serial/reader.hpp"

#include <bit>
#include <cstring>

namespace cg::serial {
namespace {

// Mirror of the writer's rule: on a little-endian host the wire image is
// the memory image, so fixed-width fields and f64 vectors load with one
// bulk copy (memcpy, so unaligned offsets are fine); other hosts assemble
// values byte by byte.
constexpr bool kWireIsNative = std::endian::native == std::endian::little;

template <typename T>
T get_le(const std::uint8_t* p) {
  T v = 0;
  if constexpr (kWireIsNative) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

}  // namespace

void Reader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw DecodeError("truncated input: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(data_.size() - pos_));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  const auto v = get_le<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const auto v = get_le<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::boolean() { return u8() != 0; }

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    need(1);
    std::uint8_t b = data_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return v;
  }
  throw DecodeError("varint longer than 10 bytes");
}

std::int64_t Reader::svarint() {
  std::uint64_t z = varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string Reader::string() {
  std::uint64_t n = varint();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes Reader::blob() {
  std::uint64_t n = varint();
  need(n);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

std::vector<double> Reader::f64_vector() {
  std::uint64_t n = varint();
  // Each element is 8 bytes; guard before allocating so a bogus count
  // cannot trigger a huge allocation. Divide rather than multiply: n * 8
  // wraps for n >= 2^61.
  if (n > remaining() / 8) {
    throw DecodeError("truncated input: f64 vector of " + std::to_string(n) +
                      " elements, have " + std::to_string(remaining()) +
                      " bytes");
  }
  if constexpr (kWireIsNative) {
    std::vector<double> v(n);
    if (n > 0) {
      std::memcpy(v.data(), data_.data() + pos_, n * 8);
      pos_ += n * 8;
    }
    return v;
  } else {
    std::vector<double> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

}  // namespace cg::serial
