// ConGrid -- virtual accounts and the billing ledger.
//
// The paper contrasts Globus's per-user account administration with
// Triana's "virtual account": any job arriving at a peer runs under one
// local identity, and the host bills each remote owner for what it
// consumed (section 2). The ledger keeps one running total per
// owner, updated in place as each sandboxed execution completes, so its
// size is bounded by the number of owners, not by how long the host has
// been up. Those totals are what a settlement layer would read.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sandbox/sandbox.hpp"

namespace cg::sandbox {

/// Aggregate consumption for one owner.
struct OwnerTotals {
  std::uint64_t executions = 0;
  std::uint64_t violations = 0;
  double cpu_seconds = 0;
  std::uint64_t network_bytes = 0;
};

/// The per-host billing ledger behind the virtual account.
class BillingLedger {
 public:
  /// Add an execution's final sandbox usage to its owner's totals.
  void bill(const std::string& owner, const Usage& usage, bool violated);

  /// This owner's totals; zero for an owner that never ran anything here.
  OwnerTotals totals_for(const std::string& owner) const;

  /// All owners that ever ran something here, with their totals.
  const std::map<std::string, OwnerTotals>& totals() const { return totals_; }

  /// Simple settlement hook: cpu-seconds price * usage (the paper leaves
  /// pricing open; a unit price keeps the interface honest).
  double amount_owed(const std::string& owner,
                     double price_per_cpu_second) const;

 private:
  std::map<std::string, OwnerTotals> totals_;
};

/// The host-side virtual account: a sandbox factory with a fixed policy
/// plus the ledger. This is what a Triana service consults before and
/// after running foreign code.
class VirtualAccount {
 public:
  VirtualAccount(std::string host_id, Policy policy,
                 const CertifiedLibrary* library = nullptr)
      : host_id_(std::move(host_id)),
        policy_(std::move(policy)),
        library_(library) {}

  /// New sandbox for one execution under this account's policy.
  Sandbox open_sandbox() const { return Sandbox(policy_, library_); }

  /// Close out an execution: bill its usage.
  void settle(const std::string& owner, const Sandbox& sb, bool violated) {
    ledger_.bill(owner, sb.usage(), violated);
  }

  const std::string& host_id() const { return host_id_; }
  const Policy& policy() const { return policy_; }
  BillingLedger& ledger() { return ledger_; }
  const BillingLedger& ledger() const { return ledger_; }

 private:
  std::string host_id_;
  Policy policy_;
  const CertifiedLibrary* library_;
  BillingLedger ledger_;
};

}  // namespace cg::sandbox
