#include "cas/hash.hpp"

#include <algorithm>
#include <cstring>

#include "cas/hash_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace cg::cas {
namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

void compress_block_scalar(detail::State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)
#define CG_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

/// Quad-round I (rounds 4I..4I+3) of one block on the SHA-NI units, with
/// the state split as the instructions want it (ABEF, CDGH). m[I % 4]
/// holds schedule words W[4I..4I+3]; alongside the rounds, msg2 finishes
/// W[4I+4..4I+7] and msg1 starts W[4I+12..4I+15], so the schedule never
/// leaves the four registers.
template <int I>
CG_SHA_NI_TARGET __attribute__((always_inline)) inline void quad_round(
    __m128i& abef, __m128i& cdgh, __m128i (&m)[4]) {
  __m128i wk = _mm_add_epi32(
      m[I % 4],
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * I])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (I >= 3 && I <= 14) {
    __m128i& next = m[(I + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(m[I % 4], m[(I + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, m[I % 4]);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  if constexpr (I >= 1 && I <= 12) {
    m[(I + 3) % 4] = _mm_sha256msg1_epu32(m[(I + 3) % 4], m[I % 4]);
  }
}
#endif

}  // namespace

namespace detail {

void compress_scalar(State& state, const std::uint8_t* blocks,
                     std::size_t n_blocks) {
  for (std::size_t i = 0; i < n_blocks; ++i) {
    compress_block_scalar(state, blocks + i * 64);
  }
}

#if defined(__x86_64__) || defined(__i386__)
bool sha_ni_supported() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool sse = (c & (1u << 19)) != 0 && (c & (1u << 9)) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return sse && (b & (1u << 29)) != 0;
}

CG_SHA_NI_TARGET void compress_sha_ni(State& state,
                                      const std::uint8_t* blocks,
                                      std::size_t n_blocks) {
  // Big-endian words within each 16-byte lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  // state is A..H; the round instructions take (A,B,E,F) and (C,D,G,H),
  // highest word first.
  const __m128i dcba =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
                            state.data())),
                        0xB1);  // CDAB
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)),
      0x1B);  // HGFE
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (std::size_t i = 0; i < n_blocks; ++i, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
    for (int j = 0; j < 4; ++j) {
      m[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * j)),
          bswap);
    }
    quad_round<0>(abef, cdgh, m);
    quad_round<1>(abef, cdgh, m);
    quad_round<2>(abef, cdgh, m);
    quad_round<3>(abef, cdgh, m);
    quad_round<4>(abef, cdgh, m);
    quad_round<5>(abef, cdgh, m);
    quad_round<6>(abef, cdgh, m);
    quad_round<7>(abef, cdgh, m);
    quad_round<8>(abef, cdgh, m);
    quad_round<9>(abef, cdgh, m);
    quad_round<10>(abef, cdgh, m);
    quad_round<11>(abef, cdgh, m);
    quad_round<12>(abef, cdgh, m);
    quad_round<13>(abef, cdgh, m);
    quad_round<14>(abef, cdgh, m);
    quad_round<15>(abef, cdgh, m);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}
#endif

CompressFn selected_compress() {
  static const CompressFn fn = []() -> CompressFn {
#if defined(__x86_64__) || defined(__i386__)
    if (sha_ni_supported()) return &compress_sha_ni;
#endif
    return &compress_scalar;
  }();
  return fn;
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_ = 0;
  buf_len_ = 0;
}

void Sha256::update(const void* data, std::size_t len) {
  const detail::CompressFn fold = detail::selected_compress();
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_ += len;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == buf_.size()) {
      fold(state_, buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  if (len >= 64) {
    fold(state_, p, len / 64);
    p += len & ~std::size_t{63};
    len &= 63;
  }
  if (len > 0) {
    std::memcpy(buf_.data(), p, len);
    buf_len_ = len;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_ * 8;
  // buf_len_ < 64 always: update() compresses a full buffer at once. Pad
  // with 0x80 then zeros; when the 8-byte length no longer fits behind the
  // pad, zero-fill and compress this block and pad a fresh one.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    detail::selected_compress()(state_, buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  detail::selected_compress()(state_, buf_.data(), 1);

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

std::string Digest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[i * 2] = digits[bytes[i] >> 4];
    out[i * 2 + 1] = digits[bytes[i] & 0xf];
  }
  return out;
}

std::optional<Digest> Digest::from_hex(std::string_view s) {
  if (s.size() != 64) return std::nullopt;
  Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    std::uint8_t v = 0;
    for (int half = 0; half < 2; ++half) {
      const char c = s[i * 2 + static_cast<std::size_t>(half)];
      v = static_cast<std::uint8_t>(v << 4);
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint8_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint8_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint8_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    d.bytes[i] = v;
  }
  return d;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace cg::cas
