#include "src/tordir/health_monitor.h"

#include <algorithm>
#include <vector>

namespace tordir {
namespace {

// min() over timestamps where -1.0 means "none yet".
double EarlierOf(double current, double candidate) {
  if (current < 0.0) {
    return candidate;
  }
  return std::min(current, candidate);
}

}  // namespace

const char* HealthAlertName(HealthAlertKind kind) {
  switch (kind) {
    case HealthAlertKind::kMissingVotes:
      return "missing-votes";
    case HealthAlertKind::kVoteEquivocation:
      return "vote-equivocation";
    case HealthAlertKind::kConsensusFork:
      return "consensus-fork";
    case HealthAlertKind::kNoConsensus:
      return "no-consensus";
    case HealthAlertKind::kMalformedVote:
      return "malformed-vote";
    case HealthAlertKind::kReplayedVote:
      return "replayed-vote";
    case HealthAlertKind::kBandwidthInflation:
      return "bandwidth-inflation";
    case HealthAlertKind::kDroppedMessages:
      return "dropped-messages";
    case HealthAlertKind::kSlowRecovery:
      return "slow-recovery";
    case HealthAlertKind::kHerdOverload:
      return "herd-overload";
  }
  return "?";
}

void HealthMonitor::RecordObservation(torbase::NodeId observer,
                                      const VoteObservation& observation) {
  SenderStat& stat = senders_[observation.sender];
  auto [it, inserted] = stat.first_seen.emplace(observation.digest, observation.at_seconds);
  if (!inserted) {
    it->second = std::min(it->second, observation.at_seconds);
  }
  stat.max_total_bandwidth = std::max(stat.max_total_bandwidth, observation.total_bandwidth);
  stat.first_observed_seconds = EarlierOf(stat.first_observed_seconds, observation.at_seconds);
  received_from_[observer].insert(observation.sender);
}

void HealthMonitor::RecordReject(torbase::NodeId observer, torbase::NodeId sender,
                                 VoteRejectReason reason, double at_seconds) {
  (void)observer;
  if (sender == torbase::kNoNode) {
    return;  // unattributable; nothing to implicate
  }
  RejectStat& stat = rejects_[sender][reason];
  ++stat.count;
  stat.earliest_seconds = EarlierOf(stat.earliest_seconds, at_seconds);
}

void HealthMonitor::RecordConsensus(torbase::NodeId authority,
                                    std::optional<torcrypto::Digest256> digest) {
  consensus_[authority] = std::move(digest);
}

void HealthMonitor::RecordUndeliverable(uint64_t count) { undeliverable_ += count; }

void HealthMonitor::RecordTimelineRound(const TimelineRoundObservation& observation) {
  timeline_rounds_.push_back(observation);
}

std::vector<HealthAlert> HealthMonitor::Analyze() const {
  std::vector<HealthAlert> alerts;

  // Vote equivocation: one sender, several digests. Evidence exists the
  // moment the *second* distinct digest is seen.
  for (const auto& [sender, stat] : senders_) {
    if (stat.first_seen.size() > 1) {
      double earliest = -1.0;
      double second = -1.0;
      for (const auto& [digest, at] : stat.first_seen) {
        if (earliest < 0.0 || at < earliest) {
          second = earliest;
          earliest = at;
        } else if (second < 0.0 || at < second) {
          second = at;
        }
      }
      alerts.push_back(HealthAlert{
          HealthAlertKind::kVoteEquivocation,
          {sender},
          "authority " + std::to_string(sender) + " published " +
              std::to_string(stat.first_seen.size()) + " distinct votes",
          second});
    }
  }

  // Admission rejects, classified. Unparseable and non-canonical bytes are
  // both "malformed wire" from the monitor's point of view; stale windows are
  // replays.
  for (const auto& [sender, by_reason] : rejects_) {
    uint32_t malformed = 0;
    double malformed_at = -1.0;
    for (VoteRejectReason reason :
         {VoteRejectReason::kMalformed, VoteRejectReason::kNonCanonical}) {
      if (auto it = by_reason.find(reason); it != by_reason.end()) {
        malformed += it->second.count;
        malformed_at = EarlierOf(malformed_at, it->second.earliest_seconds);
      }
    }
    if (malformed > 0) {
      alerts.push_back(HealthAlert{HealthAlertKind::kMalformedVote,
                                   {sender},
                                   "authority " + std::to_string(sender) + " sent " +
                                       std::to_string(malformed) + " malformed votes",
                                   malformed_at});
    }
  }
  for (const auto& [sender, by_reason] : rejects_) {
    if (auto it = by_reason.find(VoteRejectReason::kStaleWindow); it != by_reason.end()) {
      alerts.push_back(HealthAlert{
          HealthAlertKind::kReplayedVote,
          {sender},
          "authority " + std::to_string(sender) + " sent " + std::to_string(it->second.count) +
              " votes with a closed validity window",
          it->second.earliest_seconds});
    }
  }

  // Bandwidth inflation: a sender whose vote claims a total relay bandwidth
  // far above the median of its peers (TorMult-style multiplier). Needs at
  // least 3 senders with bandwidth evidence for the median to mean anything.
  {
    std::vector<uint64_t> totals;
    for (const auto& [sender, stat] : senders_) {
      if (stat.max_total_bandwidth > 0) {
        totals.push_back(stat.max_total_bandwidth);
      }
    }
    if (totals.size() >= 3) {
      std::sort(totals.begin(), totals.end());
      const uint64_t median = totals[(totals.size() - 1) / 2];
      if (median > 0) {
        for (const auto& [sender, stat] : senders_) {
          if (stat.max_total_bandwidth / 8 > median) {
            alerts.push_back(HealthAlert{
                HealthAlertKind::kBandwidthInflation,
                {sender},
                "authority " + std::to_string(sender) + " claims " +
                    std::to_string(stat.max_total_bandwidth / median) +
                    "x the median total vote bandwidth",
                stat.first_observed_seconds});
          }
        }
      }
    }
  }

  // Missing votes: count, per sender, how many observers never saw its vote.
  // Only meaningful once at least one observation was recorded (otherwise an
  // idle monitor would flag every authority).
  std::vector<torbase::NodeId> widely_missing;
  if (!received_from_.empty()) {
    for (torbase::NodeId sender = 0; sender < authority_count_; ++sender) {
      uint32_t missing_at = 0;
      for (torbase::NodeId observer = 0; observer < authority_count_; ++observer) {
        if (observer == sender) {
          continue;
        }
        auto it = received_from_.find(observer);
        if (it == received_from_.end() || it->second.count(sender) == 0) {
          ++missing_at;
        }
      }
      // Missing at a majority of the other authorities: the DDoS signature.
      if (missing_at >= (authority_count_ - 1) / 2 + 1) {
        widely_missing.push_back(sender);
      }
    }
  }
  if (!widely_missing.empty()) {
    alerts.push_back(HealthAlert{HealthAlertKind::kMissingVotes, widely_missing,
                                 std::to_string(widely_missing.size()) +
                                     " authorities' votes missing at a majority of peers"});
  }

  // Consensus outcome: fork or total failure.
  std::set<torcrypto::Digest256> distinct;
  std::vector<torbase::NodeId> producers;
  for (const auto& [authority, digest] : consensus_) {
    if (digest.has_value()) {
      distinct.insert(*digest);
      producers.push_back(authority);
    }
  }
  if (!consensus_.empty() && distinct.empty()) {
    alerts.push_back(HealthAlert{HealthAlertKind::kNoConsensus, {},
                                 "no authority produced a consensus this period"});
  } else if (distinct.size() > 1) {
    alerts.push_back(HealthAlert{HealthAlertKind::kConsensusFork, producers,
                                 std::to_string(distinct.size()) +
                                     " distinct consensus documents signed this period"});
  }

  // Undeliverable drops: directory messages the network could never carry
  // (flooded or dead links). Absence-style evidence — the drop counter has no
  // timestamp.
  if (undeliverable_ > 0) {
    alerts.push_back(HealthAlert{HealthAlertKind::kDroppedMessages,
                                 {},
                                 std::to_string(undeliverable_) +
                                     " directory messages dropped on flooded or dead links"});
  }

  // Timeline pathologies: scan the per-round horizon feed (empty outside
  // multi-round analyses, so single-round monitors never reach this).
  if (!timeline_rounds_.empty()) {
    // Slow recovery: after the *last* faulted round, clients should be back
    // on fresh serving within slow_recovery_rounds_ full rounds.
    uint64_t last_faulted = 0;
    bool any_fault = false;
    for (const TimelineRoundObservation& round : timeline_rounds_) {
      if (round.faulted) {
        any_fault = true;
        last_faulted = std::max(last_faulted, round.round);
      }
    }
    if (any_fault) {
      uint64_t degraded_rounds = 0;
      bool recovered = false;
      for (const TimelineRoundObservation& round : timeline_rounds_) {
        if (round.round <= last_faulted) {
          continue;
        }
        if (round.fresh_at_end) {
          recovered = true;
          break;
        }
        ++degraded_rounds;
      }
      const bool tail_rounds_exist = timeline_rounds_.back().round > last_faulted;
      if (tail_rounds_exist && (!recovered || degraded_rounds > slow_recovery_rounds_)) {
        alerts.push_back(HealthAlert{
            HealthAlertKind::kSlowRecovery,
            {},
            recovered ? "serving stayed degraded " + std::to_string(degraded_rounds) +
                            " rounds after the fault calendar cleared (round " +
                            std::to_string(last_faulted) + ")"
                      : "serving never returned to fresh after the fault calendar cleared (round " +
                            std::to_string(last_faulted) + ")"});
      }
    }

    // Herd overload: the bootstrap retry backlog peaked above the allowed
    // fraction of the population in some round.
    double peak_fraction = 0.0;
    uint64_t peak_round = 0;
    for (const TimelineRoundObservation& round : timeline_rounds_) {
      if (round.peak_backlog_fraction > peak_fraction) {
        peak_fraction = round.peak_backlog_fraction;
        peak_round = round.round;
      }
    }
    if (peak_fraction > herd_overload_fraction_) {
      alerts.push_back(
          HealthAlert{HealthAlertKind::kHerdOverload,
                      {},
                      "bootstrap retry herd peaked at " +
                          std::to_string(static_cast<int>(peak_fraction * 100.0 + 0.5)) +
                          "% of the population in round " + std::to_string(peak_round)});
    }
  }
  return alerts;
}

void HealthMonitor::Reset() {
  senders_.clear();
  received_from_.clear();
  rejects_.clear();
  consensus_.clear();
  undeliverable_ = 0;
  timeline_rounds_.clear();
}

}  // namespace tordir
