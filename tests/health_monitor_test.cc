// Tests for the consensus-health monitor: each attack signature (DDoS vote
// starvation, vote equivocation, consensus fork, total failure), the
// admission-evidence taxonomy (malformed / replayed / inflated votes) and the
// healthy baseline.
#include <gtest/gtest.h>

#include "src/crypto/digest.h"
#include "src/tordir/health_monitor.h"

namespace tordir {
namespace {

using torcrypto::Digest256;

Digest256 VoteDigestOf(torbase::NodeId sender, int variant = 0) {
  return Digest256::Of("vote-" + std::to_string(sender) + "-" + std::to_string(variant));
}

// Populates a fully healthy period: everyone saw everyone's (single) vote and
// produced the same consensus.
void FillHealthy(HealthMonitor& monitor, uint32_t n) {
  for (torbase::NodeId observer = 0; observer < n; ++observer) {
    for (torbase::NodeId sender = 0; sender < n; ++sender) {
      if (observer != sender) {
        monitor.RecordObservation(observer, VoteObservation{sender, VoteDigestOf(sender), 0.0, 0});
      }
    }
    monitor.RecordConsensus(observer, Digest256::Of("consensus"));
  }
}

TEST(HealthMonitorTest, HealthyPeriodRaisesNothing) {
  HealthMonitor monitor(9);
  FillHealthy(monitor, 9);
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTest, DetectsDdosVoteStarvation) {
  // The Figure 1 situation: votes from authorities 0-4 reach nobody.
  HealthMonitor monitor(9);
  for (torbase::NodeId observer = 0; observer < 9; ++observer) {
    for (torbase::NodeId sender = 5; sender < 9; ++sender) {
      if (observer != sender) {
        monitor.RecordObservation(observer, VoteObservation{sender, VoteDigestOf(sender), 0.0, 0});
      }
    }
    monitor.RecordConsensus(observer, std::nullopt);
  }
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kMissingVotes);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(alerts[1].kind, HealthAlertKind::kNoConsensus);
}

TEST(HealthMonitorTest, DetectsVoteEquivocation) {
  HealthMonitor monitor(9);
  FillHealthy(monitor, 9);
  // Authority 3 also showed a second vote variant to someone.
  monitor.RecordObservation(7, VoteObservation{3, VoteDigestOf(3, /*variant=*/1), 0.0, 0});
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kVoteEquivocation);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{3}));
}

TEST(HealthMonitorTest, DetectsConsensusFork) {
  HealthMonitor monitor(9);
  FillHealthy(monitor, 9);
  monitor.RecordConsensus(1, Digest256::Of("fork-A"));
  monitor.RecordConsensus(2, Digest256::Of("fork-A"));
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kConsensusFork);
}

TEST(HealthMonitorTest, MinorityMissingVotesIsNotAnAlert) {
  HealthMonitor monitor(9);
  FillHealthy(monitor, 9);
  HealthMonitor partial(9);
  // Authority 0's vote missing at only 3 of 8 peers: below the majority bar.
  for (torbase::NodeId observer = 0; observer < 9; ++observer) {
    for (torbase::NodeId sender = 0; sender < 9; ++sender) {
      if (observer == sender) {
        continue;
      }
      if (sender == 0 && observer >= 6) {
        continue;  // observers 6,7,8 miss it
      }
      partial.RecordObservation(observer, VoteObservation{sender, VoteDigestOf(sender), 0.0, 0});
    }
    partial.RecordConsensus(observer, Digest256::Of("consensus"));
  }
  EXPECT_TRUE(partial.Analyze().empty());
}

TEST(HealthMonitorTest, ResetClearsState) {
  HealthMonitor monitor(9);
  monitor.RecordObservation(0, VoteObservation{1, VoteDigestOf(1), 0.0, 0});
  monitor.RecordObservation(0, VoteObservation{1, VoteDigestOf(1, 1), 0.0, 0});
  EXPECT_FALSE(monitor.Analyze().empty());
  monitor.Reset();
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTest, AlertNamesAreStable) {
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kMissingVotes), "missing-votes");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kVoteEquivocation), "vote-equivocation");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kConsensusFork), "consensus-fork");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kNoConsensus), "no-consensus");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kMalformedVote), "malformed-vote");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kReplayedVote), "replayed-vote");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kBandwidthInflation), "bandwidth-inflation");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kDroppedMessages), "dropped-messages");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kSlowRecovery), "slow-recovery");
  EXPECT_STREQ(HealthAlertName(HealthAlertKind::kHerdOverload), "herd-overload");
}

// --- admission-evidence taxonomy ---------------------------------------------
// One test per injected byzantine behavior: the exact alert kind, the exact
// implicated authority, and the evidence timestamp. The healthy baseline
// (observation feed) stays alert-free.

// Observation-feed twin of FillHealthy: timestamps and bandwidth evidence.
void FillHealthyObservations(HealthMonitor& monitor, uint32_t n) {
  for (torbase::NodeId observer = 0; observer < n; ++observer) {
    for (torbase::NodeId sender = 0; sender < n; ++sender) {
      if (observer != sender) {
        monitor.RecordObservation(
            observer, VoteObservation{sender, VoteDigestOf(sender),
                                      /*at_seconds=*/1.0 + sender, /*total_bandwidth=*/1000});
      }
    }
    monitor.RecordConsensus(observer, Digest256::Of("consensus"));
  }
}

TEST(HealthMonitorTaxonomyTest, HealthyObservationFeedRaisesNothing) {
  HealthMonitor monitor(9);
  FillHealthyObservations(monitor, 9);
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTaxonomyTest, EquivocationCarriesSecondSightingTimestamp) {
  HealthMonitor monitor(9);
  FillHealthyObservations(monitor, 9);
  // Authority 3's second variant, first seen at t=42.5 by observer 7.
  monitor.RecordObservation(7, VoteObservation{3, VoteDigestOf(3, /*variant=*/1), 42.5, 1000});
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kVoteEquivocation);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{3}));
  // Evidence instant = when the *second* distinct digest appeared, not the
  // first sighting of the vote.
  EXPECT_DOUBLE_EQ(alerts[0].first_evidence_seconds, 42.5);
}

TEST(HealthMonitorTaxonomyTest, MalformedRejectsClassifyAsMalformedVote) {
  HealthMonitor monitor(9);
  FillHealthyObservations(monitor, 9);
  // Unparseable and non-canonical bytes both land in the malformed bucket;
  // the evidence instant is the earliest reject.
  monitor.RecordReject(2, 4, VoteRejectReason::kMalformed, 7.5);
  monitor.RecordReject(6, 4, VoteRejectReason::kNonCanonical, 3.25);
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kMalformedVote);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{4}));
  EXPECT_DOUBLE_EQ(alerts[0].first_evidence_seconds, 3.25);
  EXPECT_NE(alerts[0].detail.find("2 malformed votes"), std::string::npos);
}

TEST(HealthMonitorTaxonomyTest, StaleWindowRejectsClassifyAsReplayedVote) {
  HealthMonitor monitor(9);
  FillHealthyObservations(monitor, 9);
  monitor.RecordReject(1, 5, VoteRejectReason::kStaleWindow, 12.0);
  monitor.RecordReject(3, 5, VoteRejectReason::kStaleWindow, 9.0);
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kReplayedVote);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{5}));
  EXPECT_DOUBLE_EQ(alerts[0].first_evidence_seconds, 9.0);
}

TEST(HealthMonitorTaxonomyTest, UnattributableRejectsImplicateNobody) {
  HealthMonitor monitor(9);
  FillHealthyObservations(monitor, 9);
  // Malformed bytes relayed through an honest middleman carry no sound
  // attribution; the monitor must not blame anyone.
  monitor.RecordReject(2, torbase::kNoNode, VoteRejectReason::kMalformed, 5.0);
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTaxonomyTest, InflatedBandwidthFlagsTheOutlier) {
  HealthMonitor monitor(9);
  FillHealthyObservations(monitor, 9);
  // Authority 6's vote claims 64x the peers' ~1000 total; first seen at 2.0s
  // (the healthy fill already recorded sender 6 at 1.0 + 6 = 7.0s, so the
  // earlier sighting below becomes the first-observed instant).
  monitor.RecordObservation(0, VoteObservation{6, VoteDigestOf(6), 2.0, 64'000});
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kBandwidthInflation);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{6}));
  EXPECT_DOUBLE_EQ(alerts[0].first_evidence_seconds, 2.0);
  EXPECT_NE(alerts[0].detail.find("64x"), std::string::npos);
}

TEST(HealthMonitorTaxonomyTest, ModestBandwidthSpreadIsNotInflation) {
  HealthMonitor monitor(9);
  for (torbase::NodeId observer = 0; observer < 9; ++observer) {
    for (torbase::NodeId sender = 0; sender < 9; ++sender) {
      if (observer != sender) {
        // Totals spread 1000..1800: well under the 8x-median bar.
        monitor.RecordObservation(observer, VoteObservation{sender, VoteDigestOf(sender), 1.0,
                                                            1000 + sender * 100ull});
      }
    }
    monitor.RecordConsensus(observer, Digest256::Of("consensus"));
  }
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTaxonomyTest, RejectedVotesStillCountAsMissing) {
  // An authority whose vote every peer refuses at admission contributes
  // nothing to aggregation: the missing-votes signature fires alongside the
  // reject classification.
  HealthMonitor monitor(9);
  for (torbase::NodeId observer = 0; observer < 9; ++observer) {
    for (torbase::NodeId sender = 0; sender < 9; ++sender) {
      if (observer == sender || sender == 0) {
        continue;
      }
      monitor.RecordObservation(observer,
                                VoteObservation{sender, VoteDigestOf(sender), 1.0, 1000});
    }
    if (observer != 0) {
      monitor.RecordReject(observer, 0, VoteRejectReason::kMalformed, 0.5);
    }
    monitor.RecordConsensus(observer, Digest256::Of("consensus"));
  }
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kMalformedVote);
  EXPECT_EQ(alerts[0].authorities, (std::vector<torbase::NodeId>{0}));
  EXPECT_EQ(alerts[1].kind, HealthAlertKind::kMissingVotes);
  EXPECT_EQ(alerts[1].authorities, (std::vector<torbase::NodeId>{0}));
  EXPECT_DOUBLE_EQ(alerts[1].first_evidence_seconds, -1.0);  // absence: no instant
}

// --- network drops and timeline pathologies ----------------------------------

TEST(HealthMonitorTimelineTest, UndeliverableDropsRaiseDroppedMessages) {
  HealthMonitor monitor(9);
  monitor.RecordUndeliverable(0);
  EXPECT_TRUE(monitor.Analyze().empty());  // zero drops are not evidence

  monitor.RecordUndeliverable(5);
  monitor.RecordUndeliverable(2);  // accumulates across reports
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kDroppedMessages);
  EXPECT_TRUE(alerts[0].authorities.empty());
  EXPECT_NE(alerts[0].detail.find("7 directory messages"), std::string::npos);
  EXPECT_DOUBLE_EQ(alerts[0].first_evidence_seconds, -1.0);

  monitor.Reset();
  EXPECT_TRUE(monitor.Analyze().empty());
}

// Feeds a horizon where rounds [0, faulted_through] are faulted and freshness
// returns at round fresh_from (never, when >= total).
void FillTimeline(HealthMonitor& monitor, uint64_t total, uint64_t faulted_through,
                  uint64_t fresh_from, double backlog_fraction = 0.0) {
  for (uint64_t r = 0; r < total; ++r) {
    TimelineRoundObservation round;
    round.round = r;
    round.faulted = r <= faulted_through;
    round.fresh_at_end = r >= fresh_from;
    round.peak_backlog_fraction = round.fresh_at_end ? 0.0 : backlog_fraction;
    monitor.RecordTimelineRound(round);
  }
}

TEST(HealthMonitorTimelineTest, PromptRecoveryRaisesNothing) {
  HealthMonitor monitor(9);
  // Faulted through round 3, fresh again by the end of round 4: within the
  // default one-round allowance.
  FillTimeline(monitor, 12, 3, 4);
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTimelineTest, LingeringDegradationIsSlowRecovery) {
  HealthMonitor monitor(9);
  // Fault cleared after round 3 but serving only recovered at round 7: three
  // degraded tail rounds exceed the one-round default.
  FillTimeline(monitor, 12, 3, 7);
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kSlowRecovery);
  EXPECT_NE(alerts[0].detail.find("3 rounds"), std::string::npos);

  // A laxer allowance clears it.
  HealthMonitor lax(9);
  lax.set_slow_recovery_rounds(3);
  FillTimeline(lax, 12, 3, 7);
  EXPECT_TRUE(lax.Analyze().empty());
}

TEST(HealthMonitorTimelineTest, NeverRecoveringIsSlowRecovery) {
  HealthMonitor monitor(9);
  FillTimeline(monitor, 12, 3, /*fresh_from=*/12);
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kSlowRecovery);
  EXPECT_NE(alerts[0].detail.find("never returned"), std::string::npos);
}

TEST(HealthMonitorTimelineTest, FaultInTheLastRoundCannotBeJudged) {
  // No tail rounds after the last faulted one: nothing to measure recovery
  // against, so no alert (the next horizon will tell).
  HealthMonitor monitor(9);
  FillTimeline(monitor, 6, /*faulted_through=*/5, /*fresh_from=*/6);
  EXPECT_TRUE(monitor.Analyze().empty());
}

TEST(HealthMonitorTimelineTest, OversizedRetryHerdIsHerdOverload) {
  HealthMonitor monitor(9);
  // Backlog peaked at 40% of the population in the degraded rounds.
  FillTimeline(monitor, 12, 3, 4, /*backlog_fraction=*/0.4);
  const auto alerts = monitor.Analyze();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, HealthAlertKind::kHerdOverload);
  EXPECT_NE(alerts[0].detail.find("40%"), std::string::npos);

  // Below the threshold (default 25%) the herd is expected behavior.
  HealthMonitor calm(9);
  FillTimeline(calm, 12, 3, 4, /*backlog_fraction=*/0.2);
  EXPECT_TRUE(calm.Analyze().empty());

  // The threshold is a knob.
  HealthMonitor strict(9);
  strict.set_herd_overload_fraction(0.1);
  FillTimeline(strict, 12, 3, 4, /*backlog_fraction=*/0.2);
  ASSERT_EQ(strict.Analyze().size(), 1u);
}

}  // namespace
}  // namespace tordir
