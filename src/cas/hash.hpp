// ConGrid -- SHA-256 content hashing for the artifact store.
//
// Everything the content-addressed store (cas/store.hpp) holds is keyed by
// the SHA-256 of its bytes: identical module code, configs or memoized
// outputs collapse to one stored object no matter which peer produced
// them, and a disk entry whose bytes no longer hash to its name is
// detectably corrupt. The same digest is a module's identity everywhere it
// is checked: deploy adverts, the owner's-version rule and the certified
// library (repo::artifact_digest).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace cg::cas {

/// A 256-bit content digest. Value type: compare, hash, copy freely.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  /// Lowercase 64-char hex, the on-disk object filename.
  std::string hex() const;
  /// Parse 64 hex chars; nullopt on bad length or non-hex input.
  static std::optional<Digest> from_hex(std::string_view s);

  bool operator==(const Digest&) const = default;
  auto operator<=>(const Digest&) const = default;
};

/// Map/set hashing: the first 8 digest bytes are already uniform.
struct DigestHasher {
  std::size_t operator()(const Digest& d) const {
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(h); ++i) {
      h = (h << 8) | d.bytes[i];
    }
    return h;
  }
};

/// Incremental SHA-256 (FIPS 180-4). Callers framing multi-field keys must
/// length-prefix the fields themselves; update() concatenates raw bytes.
/// Blocks go through the CPU's SHA extensions where it has them (chosen
/// once per process by cpuid), else through the portable scalar rounds;
/// both give the same digest.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const void* data, std::size_t len);
  void update(std::span<const std::uint8_t> data) {
    update(data.data(), data.size());
  }
  /// Finalise and return the digest; the hasher must be reset() for reuse.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buf_{};
  std::uint64_t total_ = 0;  ///< bytes hashed so far
  std::size_t buf_len_ = 0;
};

/// One-shot digest of a byte range.
Digest sha256(std::span<const std::uint8_t> data);

}  // namespace cg::cas
