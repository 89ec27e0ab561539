// ConGrid -- sandbox policy engine.
//
// The paper leans on the Java sandbox for its security story (sections 1
// and 2): an untrusted, dynamically downloaded module must not touch the
// host beyond what the resource owner granted, and the host tracks what the
// module consumed ("the shell would also maintain billing information for
// resources used"). ConGrid's C++ substitution models that as an explicit
// policy object checked at every resource acquisition the engine performs
// on a module's behalf: CPU time, memory, filesystem paths, network
// destinations, and the certified-library restriction the paper proposes
// for the code-disguise problem ("only download executables ... from a
// pre-agreed, certified, software library", section 3.5).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cas/hash.hpp"

namespace cg::sandbox {

/// Thrown when a module exceeds its grant. The engine catches this and
/// fails the module, never the host.
class SandboxViolation : public std::runtime_error {
 public:
  explicit SandboxViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// What a resource owner grants to foreign modules. The default policy is
/// the paper's stance: spare cycles and a bounded arena, nothing else.
struct Policy {
  double max_cpu_seconds = 3600.0;
  std::uint64_t max_memory_bytes = 256ull << 20;
  std::uint64_t max_network_bytes = 1ull << 30;
  bool allow_filesystem = false;       ///< blanket switch
  std::vector<std::string> allowed_path_prefixes;  ///< exceptions when off
  bool allow_network = true;           ///< pipes need this
  bool certified_modules_only = false; ///< restrict to the certified library
};

/// Running resource usage of one sandboxed execution.
struct Usage {
  double cpu_seconds = 0.0;
  std::uint64_t memory_bytes = 0;       ///< current residency
  std::uint64_t peak_memory_bytes = 0;
  std::uint64_t network_bytes = 0;
  std::uint64_t file_accesses_denied = 0;
};

/// The certified software library: the SHA-256 artifact digests
/// (repo::artifact_digest) of modules the resource owner pre-approved.
class CertifiedLibrary {
 public:
  void certify(const cas::Digest& module) { digests_.insert(module); }
  void revoke(const cas::Digest& module) { digests_.erase(module); }
  bool is_certified(const cas::Digest& module) const {
    return digests_.contains(module);
  }
  std::size_t size() const { return digests_.size(); }

 private:
  std::set<cas::Digest> digests_;
};

/// One sandboxed execution context. The engine calls the charge/check
/// methods as the module runs; any violation throws and the module is
/// terminated. Charging is thread-safe (a mutex guards the usage ledger):
/// the wave-parallel engine bills concurrent unit firings against the one
/// sandbox its runtime was built with.
class Sandbox {
 public:
  explicit Sandbox(Policy policy, const CertifiedLibrary* library = nullptr)
      : policy_(std::move(policy)), library_(library) {}

  /// Movable (hosts build one and hand it to the job record); the guard
  /// mutex itself is not moved. Don't move a sandbox that is being
  /// charged concurrently.
  Sandbox(Sandbox&& other) noexcept
      : policy_(std::move(other.policy_)), library_(other.library_) {
    std::lock_guard lock(other.mu_);
    usage_ = other.usage_;
  }
  Sandbox(const Sandbox&) = delete;
  Sandbox& operator=(const Sandbox&) = delete;
  Sandbox& operator=(Sandbox&&) = delete;

  /// Gate module admission: throws when the policy demands certification
  /// and the module's artifact digest is not in the library.
  void admit_module(const std::string& module_name,
                    const cas::Digest& digest) const;

  /// Account CPU time; throws once the budget is exhausted.
  void charge_cpu(double seconds);

  /// Account a memory allocation; throws when the limit would be exceeded
  /// (the allocation is then considered not to have happened).
  void allocate(std::uint64_t bytes);
  /// Return memory to the arena (clamped at zero).
  void release(std::uint64_t bytes);

  /// Account network transfer; throws on budget exhaustion.
  void charge_network(std::uint64_t bytes);

  /// Check a filesystem access; throws unless the policy allows the path.
  /// Denied accesses are also counted in usage().
  void check_file_access(const std::string& path, bool write);

  /// Check that network use is allowed at all.
  void check_network_allowed() const;

  /// Snapshot of the usage ledger (by value: the ledger may be charged
  /// concurrently).
  Usage usage() const {
    std::lock_guard lock(mu_);
    return usage_;
  }
  const Policy& policy() const { return policy_; }

  /// Remaining CPU budget in seconds (never negative).
  double cpu_remaining() const;

 private:
  Policy policy_;
  const CertifiedLibrary* library_;
  mutable std::mutex mu_;  ///< guards usage_
  Usage usage_;
};

}  // namespace cg::sandbox
