// ConGrid -- trust and reputation (the paper's future work, realised).
//
// Paper (3.5): "we hope to investigate the development of more complex
// trust models (and security policies) in the future"; section 2 notes the
// Grid's assumption that "participating users are trusted ... may not
// hold" for consumer peers. This module scores counterparties from
// observed behaviour:
//
//   * a controller scores *workers* from deployment outcomes (acks,
//     failures, successful completions, result disagreements flagged by
//     the Vote unit);
//   * any caller may record a sandbox violation (kViolation) it saw.
//
// Scores live in [0, 1] with asymmetric updates -- trust builds slowly and
// collapses quickly -- and exponential forgetting so peers can redeem
// themselves. The update weights, the 0.5 prior and the 0.25 quarantine
// threshold are fixed constants (trust.cpp). TrianaController consults an
// optional TrustManager to rank discovered workers and to quarantine peers
// below threshold.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cg::sandbox {

enum class TrustEvent {
  kSuccess,       ///< job completed / results returned and agreed
  kFailure,       ///< benign failure (crash, timeout, churn)
  kViolation,     ///< sandbox policy breach
  kDisagreement,  ///< returned results contradicted the replica majority
};

class TrustManager {
 public:
  /// Record one observation about `peer`.
  void record(const std::string& peer, TrustEvent event);

  /// Current score; 0.5 for unknown peers.
  double score(const std::string& peer) const;

  /// Below the quarantine threshold?
  bool quarantined(const std::string& peer) const;

  /// Total observations recorded about a peer.
  std::uint64_t observations(const std::string& peer) const;

  /// Order peer names best-first (stable for ties).
  std::vector<std::string> ranked(std::vector<std::string> peers) const;

 private:
  struct Entry {
    double score;
    std::uint64_t observations = 0;
  };

  std::map<std::string, Entry> entries_;
};

}  // namespace cg::sandbox
