#include "sandbox/sandbox.hpp"

#include <algorithm>

namespace cg::sandbox {

void Sandbox::admit_module(const std::string& module_name,
                           const cas::Digest& digest) const {
  if (!policy_.certified_modules_only) return;
  if (library_ && library_->is_certified(digest)) return;
  throw SandboxViolation("module '" + module_name +
                         "' is not in the certified library");
}

void Sandbox::charge_cpu(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("negative cpu charge");
  std::lock_guard lock(mu_);
  usage_.cpu_seconds += seconds;
  if (usage_.cpu_seconds > policy_.max_cpu_seconds) {
    throw SandboxViolation("CPU budget exhausted: used " +
                           std::to_string(usage_.cpu_seconds) + "s of " +
                           std::to_string(policy_.max_cpu_seconds) + "s");
  }
}

void Sandbox::allocate(std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  if (usage_.memory_bytes + bytes > policy_.max_memory_bytes) {
    throw SandboxViolation("memory limit exceeded: " +
                           std::to_string(usage_.memory_bytes + bytes) +
                           " > " + std::to_string(policy_.max_memory_bytes));
  }
  usage_.memory_bytes += bytes;
  usage_.peak_memory_bytes =
      std::max(usage_.peak_memory_bytes, usage_.memory_bytes);
}

void Sandbox::release(std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  usage_.memory_bytes -= std::min(bytes, usage_.memory_bytes);
}

void Sandbox::charge_network(std::uint64_t bytes) {
  check_network_allowed();
  std::lock_guard lock(mu_);
  usage_.network_bytes += bytes;
  if (usage_.network_bytes > policy_.max_network_bytes) {
    throw SandboxViolation("network budget exhausted");
  }
}

void Sandbox::check_file_access(const std::string& path, bool write) {
  if (policy_.allow_filesystem) return;
  for (const auto& prefix : policy_.allowed_path_prefixes) {
    if (path.rfind(prefix, 0) == 0) return;
  }
  {
    std::lock_guard lock(mu_);
    ++usage_.file_accesses_denied;
  }
  throw SandboxViolation(std::string("filesystem access denied: ") +
                         (write ? "write " : "read ") + path);
}

void Sandbox::check_network_allowed() const {
  if (!policy_.allow_network) {
    throw SandboxViolation("network access denied by policy");
  }
}

double Sandbox::cpu_remaining() const {
  std::lock_guard lock(mu_);
  return std::max(0.0, policy_.max_cpu_seconds - usage_.cpu_seconds);
}

}  // namespace cg::sandbox
