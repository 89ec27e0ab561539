#include "sandbox/account.hpp"

namespace cg::sandbox {

void BillingLedger::bill(const std::string& owner, const Usage& usage,
                         bool violated) {
  OwnerTotals& t = totals_[owner];
  ++t.executions;
  t.violations += violated ? 1 : 0;
  t.cpu_seconds += usage.cpu_seconds;
  t.network_bytes += usage.network_bytes;
}

OwnerTotals BillingLedger::totals_for(const std::string& owner) const {
  auto it = totals_.find(owner);
  return it == totals_.end() ? OwnerTotals{} : it->second;
}

double BillingLedger::amount_owed(const std::string& owner,
                                  double price_per_cpu_second) const {
  return totals_for(owner).cpu_seconds * price_per_cpu_second;
}

}  // namespace cg::sandbox
