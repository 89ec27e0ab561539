#include "repo/artifact.hpp"

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::repo {
namespace {

/// Seeds make_synthetic_artifact's byte stream; no identity check uses it.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

serial::Bytes encode_artifact(const ModuleArtifact& a) {
  serial::Writer w(a.code.size() + 64);
  w.string(a.name);
  w.string(a.version);
  w.blob(a.code);
  w.varint(a.deps.size());
  for (const auto& d : a.deps) w.string(d);
  return w.take();
}

ModuleArtifact decode_artifact(const serial::Bytes& b) {
  serial::Reader r(b);
  ModuleArtifact a;
  a.name = r.string();
  a.version = r.string();
  a.code = r.blob();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) a.deps.push_back(r.string());
  return a;
}

cas::Digest artifact_digest(const ModuleArtifact& a) {
  return cas::sha256(encode_artifact(a));
}

ModuleArtifact make_synthetic_artifact(const std::string& name,
                                       const std::string& version,
                                       std::size_t size,
                                       std::vector<std::string> deps) {
  ModuleArtifact a;
  a.name = name;
  a.version = version;
  a.deps = std::move(deps);
  a.code.resize(size);
  // Content depends on name/version so different versions hash differently.
  std::uint64_t seed = fnv1a(0xCBF29CE484222325ull, name.data(), name.size());
  seed = fnv1a(seed, version.data(), version.size());
  for (std::size_t i = 0; i < size; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    a.code[i] = static_cast<std::uint8_t>(seed >> 56);
  }
  return a;
}

}  // namespace cg::repo
