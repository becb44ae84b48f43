// Shared vocabulary for the three directory-protocol implementations: run
// configuration, per-authority outcomes and the run-level success criterion.
#ifndef SRC_PROTOCOLS_COMMON_H_
#define SRC_PROTOCOLS_COMMON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/vote.h"

namespace torproto {

using torbase::Duration;
using torbase::NodeId;
using torbase::TimePoint;

struct ProtocolConfig {
  uint32_t authority_count = 9;

  // Lock-step round length of the deployed protocol (§3.1: 150 s per round).
  Duration round_length = torbase::Seconds(150);

  // Per-directory-request completion deadline: a vote POST or fetch response
  // that has not fully arrived this long after it was initiated is abandoned,
  // matching the "Giving up downloading votes" behaviour in Figure 1. The
  // calibration of this constant against the paper's crossovers is documented
  // in EXPERIMENTS.md.
  Duration dir_request_deadline = torbase::Seconds(28);

  tordir::AggregationParams aggregation;

  // Votes needed to compute a consensus, and matching signatures needed for it
  // to be valid: the majority of all authorities (5 of 9).
  uint32_t MajorityThreshold() const { return authority_count / 2 + 1; }
};

// What one authority experienced during a run.
struct AuthorityOutcome {
  bool computed_consensus = false;       // had >= majority votes at compute time
  bool valid_consensus = false;          // collected >= majority matching sigs
  uint32_t votes_held = 0;               // votes available at compute time
  uint32_t signatures_held = 0;          // matching signatures at finish
  tordir::ConsensusDocument consensus;   // populated iff computed_consensus

  // Network-time probes (paper §6.2): completion times relative to the phase
  // start, torbase::kTimeNever if the phase never completed.
  TimePoint all_votes_received_at = torbase::kTimeNever;
  TimePoint all_signatures_received_at = torbase::kTimeNever;
  TimePoint finished_at = torbase::kTimeNever;  // valid consensus assembled
};

// Aggregated view over all authorities.
struct RunResult {
  std::vector<AuthorityOutcome> outcomes;

  // The run succeeds if at least one authority assembled a valid consensus; in
  // healthy runs all of them do.
  bool Succeeded() const {
    for (const auto& outcome : outcomes) {
      if (outcome.valid_consensus) {
        return true;
      }
    }
    return false;
  }

  uint32_t ValidCount() const {
    uint32_t count = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.valid_consensus) {
        ++count;
      }
    }
    return count;
  }
};

// One vote another authority's actor *admitted* during the run: who sent it,
// the digest of its canonical bytes, when it first arrived, and the parsed
// document (shared, immutable — for evidence like bandwidth totals computed
// lazily at analysis time). Authorities record these for the health monitor;
// their own vote is excluded.
struct ObservedVote {
  NodeId sender = torbase::kNoNode;
  torcrypto::Digest256 digest;
  TimePoint at = torbase::kTimeNever;
  std::shared_ptr<const tordir::VoteDocument> document;
};

// One vote text an authority refused at admission (src/tordir/admission.h),
// attributed to `sender` when attribution is sound: the direct wire sender
// for malformed bytes, the document's own author for stale windows.
struct RejectedVote {
  NodeId sender = torbase::kNoNode;
  tordir::VoteRejectReason reason = tordir::VoteRejectReason::kMalformed;
  TimePoint at = torbase::kTimeNever;
};

// Renders "100.0.0.<id+1>:8080", the Shadow-style authority addresses used in
// Figure 1's log lines.
inline std::string AuthorityAddress(NodeId id) {
  return "100.0.0." + std::to_string(id + 1) + ":8080";
}

}  // namespace torproto

#endif  // SRC_PROTOCOLS_COMMON_H_
