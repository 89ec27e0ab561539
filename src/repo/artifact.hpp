// ConGrid -- module artifacts.
//
// The paper distributes Java class files on demand: "the peer can request
// executable code for modules that are present within the connectivity
// graph ... the executable must be requested from the owner whenever an
// execution is to be undertaken", which also solves version skew
// (section 3.3). ConGrid's substitution is a ModuleArtifact: a named,
// versioned, content-addressed byte blob with declared dependencies -- the
// bytes are synthetic "bytecode", but the transfer, caching, versioning and
// dependency-release paths are the real thing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cas/hash.hpp"
#include "serial/bytes.hpp"

namespace cg::repo {

struct ModuleArtifact {
  std::string name;
  std::string version;
  serial::Bytes code;                  ///< the "bytecode"
  std::vector<std::string> deps;       ///< module names this one needs

  /// "name@version" -- the repository key.
  std::string key() const { return name + "@" + version; }

  std::size_t size_bytes() const { return code.size(); }

  bool operator==(const ModuleArtifact&) const = default;
};

/// Serialise / parse an artifact for kCode frames.
serial::Bytes encode_artifact(const ModuleArtifact& a);
ModuleArtifact decode_artifact(const serial::Bytes& b);

/// SHA-256 of the encoded artifact: the module's one identity. It is the
/// content-addressed store key, what deploys advertise on the wire, what
/// peers dedup against and what the certified library lists.
cas::Digest artifact_digest(const ModuleArtifact& a);

/// Deterministically fabricate an artifact of roughly `size` bytes -- the
/// synthetic stand-in for real compiled module code in tests and benches.
ModuleArtifact make_synthetic_artifact(const std::string& name,
                                       const std::string& version,
                                       std::size_t size,
                                       std::vector<std::string> deps = {});

}  // namespace cg::repo
