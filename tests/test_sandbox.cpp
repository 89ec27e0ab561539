// Tests for cg_sandbox: policy enforcement (CPU, memory, filesystem,
// network, certification) and the virtual-account billing ledger.
#include <gtest/gtest.h>

#include "sandbox/account.hpp"
#include "sandbox/sandbox.hpp"

namespace cg::sandbox {
namespace {

TEST(Sandbox, CpuBudgetEnforced) {
  Policy p;
  p.max_cpu_seconds = 10.0;
  Sandbox sb(p);
  sb.charge_cpu(4.0);
  sb.charge_cpu(4.0);
  EXPECT_NEAR(sb.cpu_remaining(), 2.0, 1e-12);
  EXPECT_THROW(sb.charge_cpu(4.0), SandboxViolation);
}

TEST(Sandbox, NegativeCpuChargeRejected) {
  Sandbox sb(Policy{});
  EXPECT_THROW(sb.charge_cpu(-1.0), std::invalid_argument);
}

TEST(Sandbox, MemoryLimitAndPeakTracking) {
  Policy p;
  p.max_memory_bytes = 1000;
  Sandbox sb(p);
  sb.allocate(600);
  sb.release(200);
  sb.allocate(500);  // 900 resident
  EXPECT_EQ(sb.usage().memory_bytes, 900u);
  EXPECT_EQ(sb.usage().peak_memory_bytes, 900u);
  EXPECT_THROW(sb.allocate(200), SandboxViolation);
  // Failed allocation must not count.
  EXPECT_EQ(sb.usage().memory_bytes, 900u);
}

TEST(Sandbox, ReleaseClampsAtZero) {
  Sandbox sb(Policy{});
  sb.allocate(100);
  sb.release(10000);
  EXPECT_EQ(sb.usage().memory_bytes, 0u);
}

TEST(Sandbox, FilesystemDeniedByDefault) {
  Sandbox sb(Policy{});
  EXPECT_THROW(sb.check_file_access("/etc/passwd", false), SandboxViolation);
  EXPECT_EQ(sb.usage().file_accesses_denied, 1u);
}

TEST(Sandbox, FilesystemPrefixException) {
  Policy p;
  p.allowed_path_prefixes = {"/tmp/congrid/"};
  Sandbox sb(p);
  sb.check_file_access("/tmp/congrid/scratch.dat", true);  // no throw
  EXPECT_THROW(sb.check_file_access("/tmp/other", true), SandboxViolation);
}

TEST(Sandbox, FilesystemBlanketAllow) {
  Policy p;
  p.allow_filesystem = true;
  Sandbox sb(p);
  sb.check_file_access("/anything", true);
  EXPECT_EQ(sb.usage().file_accesses_denied, 0u);
}

TEST(Sandbox, NetworkBudgetAndSwitch) {
  Policy p;
  p.max_network_bytes = 100;
  Sandbox sb(p);
  sb.charge_network(60);
  EXPECT_THROW(sb.charge_network(50), SandboxViolation);

  Policy off;
  off.allow_network = false;
  Sandbox sb2(off);
  EXPECT_THROW(sb2.check_network_allowed(), SandboxViolation);
  EXPECT_THROW(sb2.charge_network(1), SandboxViolation);
}

/// A stand-in artifact digest.
cas::Digest digest_of(const std::string& text) {
  return cas::sha256(
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

TEST(Sandbox, CertificationGate) {
  CertifiedLibrary lib;
  lib.certify(digest_of("fft"));
  Policy p;
  p.certified_modules_only = true;
  Sandbox sb(p, &lib);
  sb.admit_module("fft", digest_of("fft"));  // certified: ok
  EXPECT_THROW(sb.admit_module("trojan", digest_of("trojan")),
               SandboxViolation);

  lib.revoke(digest_of("fft"));
  EXPECT_THROW(sb.admit_module("fft", digest_of("fft")), SandboxViolation);
}

TEST(Sandbox, CertificationIgnoredWhenPolicyOff) {
  Policy p;  // certified_modules_only = false
  Sandbox sb(p, nullptr);
  sb.admit_module("anything", digest_of("anything"));  // no throw
}

TEST(Ledger, RecordsAndAggregates) {
  BillingLedger ledger;
  Usage u1;
  u1.cpu_seconds = 5.0;
  u1.network_bytes = 100;
  Usage u2;
  u2.cpu_seconds = 7.0;
  ledger.bill("alice", u1, false);
  ledger.bill("alice", u2, true);
  ledger.bill("bob", u1, false);

  auto alice = ledger.totals_for("alice");
  EXPECT_EQ(alice.executions, 2u);
  EXPECT_EQ(alice.violations, 1u);
  EXPECT_DOUBLE_EQ(alice.cpu_seconds, 12.0);
  EXPECT_EQ(alice.network_bytes, 100u);

  const auto& all = ledger.totals();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("bob").executions, 1u);

  EXPECT_DOUBLE_EQ(ledger.amount_owed("alice", 0.5), 6.0);
  EXPECT_DOUBLE_EQ(ledger.amount_owed("nobody", 0.5), 0.0);
}

TEST(VirtualAccount, SandboxLifecycle) {
  CertifiedLibrary lib;
  Policy p;
  p.max_cpu_seconds = 100.0;
  VirtualAccount account("host-1", p, &lib);

  Sandbox sb = account.open_sandbox();
  sb.charge_cpu(3.5);
  account.settle("alice", sb, false);

  EXPECT_EQ(account.ledger().totals().size(), 1u);
  const auto alice = account.ledger().totals_for("alice");
  EXPECT_EQ(alice.executions, 1u);
  EXPECT_EQ(alice.violations, 0u);
  EXPECT_DOUBLE_EQ(alice.cpu_seconds, 3.5);
}

TEST(VirtualAccount, ViolationIsBilledAsSuch) {
  Policy tight;
  tight.max_cpu_seconds = 1.0;
  VirtualAccount account("host-1", tight);
  Sandbox sb = account.open_sandbox();
  bool violated = false;
  try {
    sb.charge_cpu(2.0);
  } catch (const SandboxViolation&) {
    violated = true;
  }
  account.settle("mallory", sb, violated);
  EXPECT_EQ(account.ledger().totals_for("mallory").violations, 1u);
}

}  // namespace
}  // namespace cg::sandbox
