// Tests for whole experiments run through the scenario runner, the layer every
// bench relies on. Covers success/latency/byte accounting for all three
// protocols, the bandwidth-requirement search, and the two-phase agreement
// plumbing. Each run uses a fresh runner unless the test shares one on purpose.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/attack/ddos.h"
#include "src/scenario/runner.h"

namespace torscenario {
namespace {

TEST(ExperimentTest, CurrentProtocolHealthyRun) {
  ScenarioSpec spec;
  spec.protocol = "current";
  spec.relay_count = 400;
  const auto result = ScenarioRunner().Run(spec);
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.valid_count, 9u);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_LT(result.latency_seconds, 60.0);
  EXPECT_GT(result.consensus_relays, 390u);
  EXPECT_GT(result.total_bytes_sent, 0u);
  EXPECT_GT(result.bytes_by_kind.at("VOTE"), result.bytes_by_kind.at("SIG"));
}

TEST(ExperimentTest, AllThreeProtocolsAgreeOnHealthySuccess) {
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    ScenarioSpec spec;
    spec.protocol = protocol;
    spec.relay_count = 300;
    const auto result = ScenarioRunner().Run(spec);
    EXPECT_TRUE(result.succeeded) << protocol;
    EXPECT_EQ(result.valid_count, 9u) << protocol;
  }
}

TEST(ExperimentTest, FailureYieldsNanLatency) {
  ScenarioSpec spec;
  spec.protocol = "current";
  spec.relay_count = 800;
  torattack::AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = torbase::Minutes(5);
  spec.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{attack});
  const auto result = ScenarioRunner().Run(spec);
  EXPECT_FALSE(result.succeeded);
  EXPECT_TRUE(std::isnan(result.latency_seconds));
  EXPECT_TRUE(std::isnan(result.finish_time_seconds));
}

TEST(ExperimentTest, ResultDefaultsToNanNotZero) {
  // The header promises NaN latency/finish on failed runs; a default
  // (unpopulated) result must not masquerade as a zero-latency success.
  ScenarioResult result;
  EXPECT_FALSE(result.succeeded);
  EXPECT_TRUE(std::isnan(result.latency_seconds));
  EXPECT_TRUE(std::isnan(result.finish_time_seconds));
}

TEST(ExperimentTest, DeterministicAcrossInvocations) {
  ScenarioSpec spec;
  spec.protocol = "icps";
  spec.relay_count = 250;
  const auto a = ScenarioRunner().Run(spec);
  const auto b = ScenarioRunner().Run(spec);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_DOUBLE_EQ(a.latency_seconds, b.latency_seconds);
  EXPECT_EQ(a.total_bytes_sent, b.total_bytes_sent);
}

TEST(ExperimentTest, SynchronousMovesMoreBytesThanCurrent) {
  ScenarioSpec spec;
  spec.relay_count = 400;
  spec.protocol = "current";
  const auto current = ScenarioRunner().Run(spec);
  spec.protocol = "synchronous";
  const auto sync = ScenarioRunner().Run(spec);
  // The packed-vote phase replicates every list n more times: ~5-9x traffic.
  EXPECT_GT(sync.total_bytes_sent, 4 * current.total_bytes_sent);
}

TEST(ExperimentTest, TwoPhaseAgreementIsFasterNeverSlower) {
  ScenarioSpec spec;
  spec.protocol = "icps";
  spec.relay_count = 300;
  spec.two_phase_agreement = false;
  const auto three_phase = ScenarioRunner().Run(spec);
  spec.two_phase_agreement = true;
  const auto two_phase = ScenarioRunner().Run(spec);
  ASSERT_TRUE(three_phase.succeeded);
  ASSERT_TRUE(two_phase.succeeded);
  EXPECT_LT(two_phase.latency_seconds, three_phase.latency_seconds);
}

TEST(ExperimentTest, SmallerAuthorityCountsWork) {
  for (uint32_t n : {4u, 7u, 13u}) {
    ScenarioSpec spec;
    spec.protocol = "icps";
    spec.authority_count = n;
    spec.relay_count = 150;
    const auto result = ScenarioRunner().Run(spec);
    EXPECT_TRUE(result.succeeded) << "n = " << n;
    EXPECT_EQ(result.valid_count, n) << "n = " << n;
  }
}

TEST(ExperimentTest, BandwidthRequirementBracketsAndIsMonotone) {
  ScenarioSpec spec;
  spec.protocol = "current";
  spec.horizon = torbase::Minutes(15);

  ScenarioRunner runner;
  spec.relay_count = 800;
  const double small = *runner.FindBandwidthRequirement(spec, 5, 0.2e6, 25e6, /*probes=*/5);
  spec.relay_count = 2400;
  const double large = *runner.FindBandwidthRequirement(spec, 5, 0.2e6, 25e6, /*probes=*/5);
  EXPECT_GT(small, 0.2e6);
  EXPECT_LT(small, 25e6);
  // Requirement grows with the relay count (Figure 7's monotonicity).
  EXPECT_GT(large, small);
  // And roughly linearly: 3x the relays within [1.5x, 6x] the bandwidth.
  EXPECT_GT(large, 1.5 * small);
  EXPECT_LT(large, 6.0 * small);
}

TEST(ExperimentTest, IcpsSucceedsWhereCurrentFails) {
  // The headline comparison as a single assertion pair.
  ScenarioSpec spec;
  spec.relay_count = 1000;
  spec.bandwidth_bps = torsim::MegabitsPerSecond(1);
  spec.protocol = "current";
  EXPECT_FALSE(ScenarioRunner().Run(spec).succeeded);
  spec.protocol = "icps";
  EXPECT_TRUE(ScenarioRunner().Run(spec).succeeded);
}

}  // namespace
}  // namespace torscenario
