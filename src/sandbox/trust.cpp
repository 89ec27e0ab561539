#include "sandbox/trust.hpp"

#include <algorithm>

namespace cg::sandbox {
namespace {

constexpr double kInitial = 0.5;            ///< score for a peer never seen
constexpr double kSuccessGain = 0.05;       ///< towards 1 on good behaviour
constexpr double kFailureLoss = 0.10;       ///< towards 0 on benign failure
constexpr double kViolationLoss = 0.50;     ///< towards 0 on a sandbox breach
constexpr double kDisagreementLoss = 0.35;  ///< towards 0 on a bad result
constexpr double kQuarantineThreshold = 0.25;
/// Per observation, older evidence decays towards kInitial by this factor
/// before the update applies (redemption path).
constexpr double kForgetting = 0.02;

}  // namespace

void TrustManager::record(const std::string& peer, TrustEvent event) {
  auto [it, inserted] = entries_.emplace(peer, Entry{kInitial, 0});
  Entry& e = it->second;

  // Forgetting: drift towards the prior before applying new evidence.
  e.score += (kInitial - e.score) * kForgetting;

  switch (event) {
    case TrustEvent::kSuccess:
      e.score += (1.0 - e.score) * kSuccessGain;
      break;
    case TrustEvent::kFailure:
      e.score -= e.score * kFailureLoss;
      break;
    case TrustEvent::kViolation:
      e.score -= e.score * kViolationLoss;
      break;
    case TrustEvent::kDisagreement:
      e.score -= e.score * kDisagreementLoss;
      break;
  }
  e.score = std::clamp(e.score, 0.0, 1.0);
  ++e.observations;
}

double TrustManager::score(const std::string& peer) const {
  auto it = entries_.find(peer);
  return it == entries_.end() ? kInitial : it->second.score;
}

bool TrustManager::quarantined(const std::string& peer) const {
  return score(peer) < kQuarantineThreshold;
}

std::uint64_t TrustManager::observations(const std::string& peer) const {
  auto it = entries_.find(peer);
  return it == entries_.end() ? 0 : it->second.observations;
}

std::vector<std::string> TrustManager::ranked(
    std::vector<std::string> peers) const {
  std::stable_sort(peers.begin(), peers.end(),
                   [this](const std::string& a, const std::string& b) {
                     return score(a) > score(b);
                   });
  return peers;
}

}  // namespace cg::sandbox
