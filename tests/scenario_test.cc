// Tests for the scenario engine (src/scenario) and the protocol registry
// (src/protocols/directory_protocol.h): registry enumeration, declarative
// rolling/adaptive attack scenarios, workload caching across sweep cells,
// heterogeneous per-authority bandwidth, and churn events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/attack/schedule.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec_digest.h"

namespace torscenario {
namespace {

using torbase::Minutes;
using torbase::Seconds;

ScenarioSpec SmallSpec(const std::string& protocol) {
  ScenarioSpec spec;
  spec.name = "test";
  spec.protocol = protocol;
  spec.relay_count = 200;
  spec.seed = 1;
  return spec;
}

TEST(ProtocolRegistryTest, EnumeratesBuiltinsAndRunsEachUnattacked) {
  const auto names = torproto::RegisteredProtocolNames();
  ASSERT_GE(names.size(), 3u);
  for (const char* expected : {"current", "icps", "synchronous"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }

  // One small healthy scenario per registered protocol: all must succeed.
  ScenarioRunner runner;
  for (const auto& name : names) {
    const auto result = runner.Run(SmallSpec(name));
    EXPECT_TRUE(result.succeeded) << name;
    EXPECT_EQ(result.valid_count, 9u) << name;
    EXPECT_GT(result.consensus_relays, 190u) << name;
  }
  // All protocols shared one generated workload.
  EXPECT_EQ(runner.workload_cache_misses(), 1u);
  EXPECT_EQ(runner.workload_cache_hits(), names.size() - 1);
}

TEST(ProtocolRegistryTest, LookupAndDisplayNames) {
  EXPECT_EQ(torproto::GetProtocol("icps").display_name(), "Ours");
  EXPECT_EQ(torproto::GetProtocol("current").display_name(), "Current");
  EXPECT_EQ(torproto::FindProtocol("no-such-protocol"), nullptr);
}

TEST(ScenarioRunnerTest, WorkloadCacheKeysOnRelaysSeedAndAuthorityCount) {
  ScenarioRunner runner;
  ScenarioSpec spec = SmallSpec("current");
  runner.Run(spec);
  EXPECT_EQ(runner.workload_cache_misses(), 1u);

  spec.bandwidth_bps = 50e6;  // bandwidth is not part of the workload key
  runner.Run(spec);
  EXPECT_EQ(runner.workload_cache_misses(), 1u);
  EXPECT_EQ(runner.workload_cache_hits(), 1u);

  spec.seed = 2;  // a new seed is a new workload
  runner.Run(spec);
  EXPECT_EQ(runner.workload_cache_misses(), 2u);

  spec.relay_count = 150;  // and so is a new relay count
  runner.Run(spec);
  EXPECT_EQ(runner.workload_cache_misses(), 3u);
  EXPECT_EQ(runner.workload_cache_size(), 3u);
}

TEST(ScenarioRunnerTest, CachedWorkloadRunsMatchFreshRuns) {
  // Reusing the cached votes must not change results: actors get copies.
  ScenarioSpec spec = SmallSpec("icps");
  ScenarioRunner shared;
  const auto first = shared.Run(spec);
  const auto second = shared.Run(spec);
  ScenarioRunner fresh;
  const auto baseline = fresh.Run(spec);
  EXPECT_EQ(first.succeeded, baseline.succeeded);
  EXPECT_DOUBLE_EQ(first.latency_seconds, baseline.latency_seconds);
  EXPECT_EQ(first.total_bytes_sent, baseline.total_bytes_sent);
  EXPECT_DOUBLE_EQ(second.latency_seconds, baseline.latency_seconds);
  EXPECT_EQ(second.total_bytes_sent, baseline.total_bytes_sent);
}

TEST(ScenarioRunnerTest, ResultMemoServesRenamedRepeatsAndKeysOnDeepFields) {
  ScenarioRunner runner;
  ASSERT_TRUE(runner.memoize());  // on by default

  ScenarioSpec spec = SmallSpec("icps");
  spec.byzantine.behaviors[0] = torproto::ByzantineBehavior::kEquivocate;
  const ScenarioResult first = runner.Run(spec);
  EXPECT_EQ(runner.result_memo_misses(), 1u);
  EXPECT_EQ(runner.result_memo_hits(), 0u);

  // Renaming is the documented digest exemption: the repeat is the same
  // simulation, served from the memo bit-identically.
  ScenarioSpec renamed = spec;
  renamed.name = "same-but-renamed";
  EXPECT_EQ(SpecDigest(renamed), SpecDigest(spec));
  const ScenarioResult repeat = runner.Run(renamed);
  EXPECT_EQ(runner.result_memo_hits(), 1u);
  EXPECT_EQ(runner.result_memo_misses(), 1u);
  EXPECT_TRUE(BitIdentical(first, repeat));

  // Flipping one deep field — a single byzantine behavior — must be a new
  // digest and a fresh simulation with its own result, never a silent false
  // hit on the kEquivocate entry.
  ScenarioSpec deep = spec;
  deep.byzantine.behaviors[0] = torproto::ByzantineBehavior::kReplay;
  EXPECT_NE(SpecDigest(deep), SpecDigest(spec));
  const ScenarioResult different = runner.Run(deep);
  EXPECT_EQ(runner.result_memo_misses(), 2u);
  EXPECT_EQ(runner.result_memo_size(), 2u);
  EXPECT_FALSE(BitIdentical(first, different));

  // Memo off bypasses the table in both directions: no probe, no publication,
  // and the recomputed result still matches the memoized one exactly.
  runner.set_memoize(false);
  const ScenarioResult unmemoized = runner.Run(spec);
  EXPECT_EQ(runner.result_memo_hits(), 1u);
  EXPECT_EQ(runner.result_memo_misses(), 2u);
  EXPECT_TRUE(BitIdentical(first, unmemoized));

  runner.ClearResultMemo();
  EXPECT_EQ(runner.result_memo_size(), 0u);
}

TEST(ScenarioTest, RollingAttackScenarioIsDeterministic) {
  torattack::RollingAttackConfig attack_config;
  attack_config.victim_count = 5;
  attack_config.period = Minutes(1);
  attack_config.start = 0;
  attack_config.end = Minutes(5);

  ScenarioSpec spec = SmallSpec("current");
  spec.relay_count = 400;
  spec.attack = std::make_shared<torattack::RollingAttack>(attack_config);
  spec.horizon = torbase::Hours(1);

  ScenarioRunner runner;
  const auto first = runner.Run(spec);
  const auto second = runner.Run(spec);

  // Same victim sequence, same outcome, run after run.
  ASSERT_EQ(first.attack_history.size(), 5u);
  EXPECT_EQ(first.attack_history, second.attack_history);
  EXPECT_EQ(first.succeeded, second.succeeded);
  EXPECT_EQ(first.total_bytes_sent, second.total_bytes_sent);
  // Epoch k floods authorities k..k+4 (mod 9).
  EXPECT_EQ(first.attack_history[2].victims,
            (std::vector<torbase::NodeId>{2, 3, 4, 5, 6}));
}

TEST(ScenarioTest, AdaptiveLeaderScenarioIsDeterministicAndRecordsVictims) {
  torattack::AdaptiveLeaderConfig attack_config;
  attack_config.victim_count = 1;
  attack_config.period = Seconds(30);
  attack_config.start = 0;
  attack_config.end = Minutes(10);

  ScenarioSpec spec = SmallSpec("icps");
  spec.relay_count = 300;
  spec.attack = std::make_shared<torattack::AdaptiveLeaderAttack>(attack_config);
  spec.horizon = torbase::Hours(1);

  ScenarioRunner runner;
  const auto first = runner.Run(spec);
  const auto second = runner.Run(spec);

  EXPECT_FALSE(first.attack_history.empty());
  EXPECT_EQ(first.attack_history, second.attack_history);
  EXPECT_EQ(first.succeeded, second.succeeded);
  EXPECT_EQ(first.total_bytes_sent, second.total_bytes_sent);
  for (const auto& sample : first.attack_history) {
    ASSERT_EQ(sample.victims.size(), 1u);
    EXPECT_LT(sample.victims[0], spec.authority_count);
  }
  // Flooding one authority at a time never blocks ICPS (f = 2): it finishes.
  EXPECT_TRUE(first.succeeded);
}

TEST(ScenarioTest, HeterogeneousBandwidthStarvesOnlyTheSlowAuthorities) {
  // 5 of 9 authorities on links far below the Figure-7 requirement: the
  // current protocol fails, even though the network-wide default is ample.
  ScenarioSpec spec = SmallSpec("current");
  spec.relay_count = 800;
  spec.horizon = Minutes(15);
  for (torbase::NodeId node = 0; node < 5; ++node) {
    spec.bandwidth_by_authority[node] = torattack::kUnderAttackBps;
  }
  ScenarioRunner runner;
  EXPECT_FALSE(runner.Run(spec).succeeded);

  // Fast links for the same 5: healthy again.
  for (torbase::NodeId node = 0; node < 5; ++node) {
    spec.bandwidth_by_authority[node] = 250e6;
  }
  EXPECT_TRUE(runner.Run(spec).succeeded);
}

TEST(ScenarioTest, ChurnCrashMinorityIsToleratedMajorityIsNot) {
  ScenarioRunner runner;

  // ICPS tolerates f = 2 crashes: one authority dead from the start is
  // survivable — the other 8 proceed with n - f documents after Δ.
  ScenarioSpec icps = SmallSpec("icps");
  icps.churn.push_back({/*node=*/8, /*at=*/0, ChurnEvent::Kind::kCrash});
  const auto tolerated = runner.Run(icps);
  EXPECT_TRUE(tolerated.succeeded);
  EXPECT_EQ(tolerated.valid_count, 8u);  // the dead authority cannot finish

  // The current protocol cannot compute a consensus when a majority crashes
  // before the vote exchange.
  ScenarioSpec current = SmallSpec("current");
  current.relay_count = 400;
  current.horizon = Minutes(15);
  for (torbase::NodeId node = 0; node < 5; ++node) {
    current.churn.push_back({node, Seconds(1), ChurnEvent::Kind::kCrash});
  }
  EXPECT_FALSE(runner.Run(current).succeeded);
}

TEST(ScenarioTest, CrashedNodeStaysDownWhenAnAttackWindowEnds) {
  // A crash mid attack-window must not be undone by the window's restore
  // point: the node is dead, not merely clamped.
  torattack::AttackWindow window;
  window.targets = {8};
  window.start = 0;
  window.end = Minutes(5);
  window.available_bps = torattack::kUnderAttackBps;

  ScenarioSpec spec = SmallSpec("icps");
  spec.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
  spec.churn.push_back({/*node=*/8, /*at=*/Seconds(5), ChurnEvent::Kind::kCrash});

  ScenarioRunner runner;
  const auto result = runner.Run(spec);
  // The other 8 finish; the crashed authority never does, even though its
  // attack window expired at t=5min.
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.valid_count, 8u);
}

TEST(ScenarioTest, ChurnRecoverRestoresTheConfiguredRate) {
  // Crash-then-recover is exactly the Figure 11 shape: ICPS finishes shortly
  // after the crashed majority returns.
  ScenarioSpec spec = SmallSpec("icps");
  spec.relay_count = 300;
  for (torbase::NodeId node = 0; node < 5; ++node) {
    spec.churn.push_back({node, 0, ChurnEvent::Kind::kCrash});
    spec.churn.push_back({node, Minutes(5), ChurnEvent::Kind::kRecover});
  }
  ScenarioRunner runner;
  const auto result = runner.Run(spec);
  EXPECT_TRUE(result.succeeded);
  EXPECT_GT(result.finish_time_seconds, torbase::ToSeconds(Minutes(5)));
}

TEST(ScenarioTest, UndeliverableDropsAreSurfacedAndAlerted) {
  // A node that is down for the whole run silently eats every message sent to
  // it; those drops must show up in the result and as a dropped-messages
  // health alert. A clean run drops nothing.
  ScenarioSpec spec = SmallSpec("current");
  spec.churn.push_back({0, 0, ChurnEvent::Kind::kCrash});
  ScenarioRunner runner;
  const auto result = runner.Run(spec);
  EXPECT_GT(result.undeliverable_messages, 0u);
  bool dropped = false;
  for (const auto& alert : result.health_alerts) {
    dropped |= alert.kind == tordir::HealthAlertKind::kDroppedMessages;
  }
  EXPECT_TRUE(dropped);

  const auto clean = runner.Run(SmallSpec("current"));
  EXPECT_EQ(clean.undeliverable_messages, 0u);
  for (const auto& alert : clean.health_alerts) {
    EXPECT_NE(alert.kind, tordir::HealthAlertKind::kDroppedMessages);
  }
}

TEST(ScenarioTest, SweepRunsEveryCellInOrder) {
  std::vector<ScenarioSpec> specs;
  for (const char* protocol : {"current", "icps"}) {
    for (double bw_mbps : {50.0, 10.0}) {
      ScenarioSpec spec = SmallSpec(protocol);
      spec.bandwidth_bps = bw_mbps * 1e6;
      specs.push_back(std::move(spec));
    }
  }
  ScenarioRunner runner;
  const auto results = runner.Sweep(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].succeeded) << i;
  }
  EXPECT_EQ(runner.workload_cache_misses(), 1u);
  EXPECT_EQ(runner.workload_cache_hits(), specs.size() - 1);
}

// --- the one execution path: what Run must keep ------------------------------

TEST(ScenarioRunnerTest, ConcurrentRunsOnASharedRunnerBuildOneWorkload) {
  // fig7's pattern: several threads call Run on one runner, all on the same
  // workload key. The first miss builds; the others join that build as hits,
  // and every result matches a serial run on a runner of its own.
  std::vector<ScenarioSpec> specs;
  for (double bw_mbps : {50.0, 10.0, 2.0, 1.0}) {
    ScenarioSpec spec = SmallSpec("current");
    spec.bandwidth_bps = bw_mbps * 1e6;
    torattack::AttackWindow window;
    window.targets = torattack::FirstTargets(2);
    window.end = Minutes(5);
    window.available_bps = bw_mbps * 1e5;
    // One schedule object per spec: a Run installs the caller's own schedule.
    spec.attack = std::make_shared<torattack::WindowedAttack>(
        std::vector<torattack::AttackWindow>{window});
    specs.push_back(std::move(spec));
  }
  std::vector<ScenarioResult> serial;
  for (const ScenarioSpec& spec : specs) {
    serial.push_back(ScenarioRunner().Run(spec));
  }

  ScenarioRunner shared;
  std::vector<ScenarioResult> concurrent(specs.size());
  {
    std::vector<std::jthread> threads;
    for (size_t i = 0; i < specs.size(); ++i) {
      threads.emplace_back([&, i] { concurrent[i] = shared.Run(specs[i]); });
    }
  }
  EXPECT_EQ(shared.workload_cache_misses(), 1u);
  EXPECT_EQ(shared.workload_cache_hits(), specs.size() - 1);
  EXPECT_EQ(shared.result_memo_misses(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(BitIdentical(serial[i], concurrent[i])) << "spec " << i;
  }
}

TEST(ScenarioRunnerTest, InspectedRunOfAMemoizedSpecFiresTheHookAndBypassesTheMemo) {
  ScenarioRunner runner;
  const ScenarioSpec spec = SmallSpec("icps");
  const ScenarioResult memoized = runner.Run(spec);
  ASSERT_EQ(runner.result_memo_misses(), 1u);
  ASSERT_EQ(runner.result_memo_size(), 1u);

  size_t inspected_actors = 0;
  const ScenarioResult inspected =
      runner.Run(spec, [&](torsim::Harness&, const std::vector<torsim::Actor*>& actors) {
        inspected_actors = actors.size();
      });
  EXPECT_EQ(inspected_actors, spec.authority_count);
  EXPECT_EQ(runner.result_memo_hits(), 0u);
  EXPECT_EQ(runner.result_memo_misses(), 1u);
  EXPECT_EQ(runner.result_memo_size(), 1u);
  EXPECT_TRUE(BitIdentical(memoized, inspected));
}

TEST(ScenarioRunnerTest, SerialRunLeavesItsHistoryOnTheCallersSchedule) {
  // A serial cell runs the caller's spec in place, so callers may read the
  // schedule they passed in after Run (as the round benchmark does).
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.end = Minutes(5);
  const auto attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{window});
  ScenarioSpec spec = SmallSpec("current");
  spec.attack = attack;
  ScenarioRunner runner;
  const ScenarioResult result = runner.Run(spec);
  ASSERT_FALSE(result.attack_history.empty());
  EXPECT_EQ(attack->history(), result.attack_history);
}

TEST(ScenarioRunnerTest, BandwidthSearchRejectsAStandingAttackItCannotJoin) {
  // The probe clamp can only join windows; dropping a rolling attack would
  // measure a different scenario than the caller asked for.
  ScenarioSpec base = SmallSpec("current");
  base.attack = std::make_shared<torattack::RollingAttack>(torattack::RollingAttackConfig{});
  ScenarioRunner runner;
  const auto required = runner.FindBandwidthRequirement(base, /*victim_count=*/5, 0.2e6, 25e6,
                                                        /*probes=*/2);
  ASSERT_FALSE(required.ok());
  EXPECT_EQ(required.status().code(), torbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(runner.workload_cache_misses(), 0u);  // nothing ran
}

// A windowed attack whose verdict flips: the second time a clone is installed
// with the same probe clamp, the clamp drops to 1 kbps, so a bandwidth that
// succeeded once now fails. Describe() is the windowed one, so the spec digest
// cannot tell the two installs apart.
class FlipOnReinstallAttack : public torattack::WindowedAttack {
 public:
  FlipOnReinstallAttack(std::vector<torattack::AttackWindow> windows,
                        std::shared_ptr<std::map<double, int>> installs)
      : WindowedAttack(std::move(windows)), installs_(std::move(installs)) {}

  std::shared_ptr<torattack::AttackSchedule> Clone() const override {
    return std::make_shared<FlipOnReinstallAttack>(windows(), installs_);
  }
  void Install(torsim::Harness& harness, const torattack::AttackContext& context) override {
    if (!windows().empty() && ++(*installs_)[windows().back().available_bps] > 1) {
      windows().back().available_bps = 1e3;
    }
    WindowedAttack::Install(harness, context);
  }

 private:
  std::shared_ptr<std::map<double, int>> installs_;
};

TEST(ScenarioRunnerTest, BandwidthSearchReportsALostInvariant) {
  // With the memo off the confirmation probe re-simulates the returned
  // bandwidth; a verdict that flips there must come back as an error in every
  // build type, not as a requirement.
  ScenarioSpec base = SmallSpec("current");
  base.attack = std::make_shared<FlipOnReinstallAttack>(
      std::vector<torattack::AttackWindow>{}, std::make_shared<std::map<double, int>>());
  ScenarioRunner runner;
  runner.set_memoize(false);
  const auto required = runner.FindBandwidthRequirement(base, /*victim_count=*/5, 0.2e6, 25e6,
                                                        /*probes=*/3);
  ASSERT_FALSE(required.ok());
  EXPECT_EQ(required.status().code(), torbase::StatusCode::kInternal);

  // Control: with the memo on the confirmation is a replay, each bandwidth is
  // installed once, and the same search brackets a requirement.
  base.attack = std::make_shared<FlipOnReinstallAttack>(
      std::vector<torattack::AttackWindow>{}, std::make_shared<std::map<double, int>>());
  ScenarioRunner memo_runner;
  const auto memoized = memo_runner.FindBandwidthRequirement(base, /*victim_count=*/5, 0.2e6,
                                                             25e6, /*probes=*/3);
  ASSERT_TRUE(memoized.ok());
  EXPECT_GT(*memoized, 0.2e6);
  EXPECT_LT(*memoized, 25e6);
}

// Per-field diagnostics for a BitIdentical failure; the authoritative
// comparison (covering every ScenarioResult field) is BitIdentical itself.
void ExpectSameResult(const ScenarioResult& a, const ScenarioResult& b, size_t cell) {
  EXPECT_TRUE(BitIdentical(a, b)) << "cell " << cell;
  EXPECT_EQ(a.succeeded, b.succeeded) << "cell " << cell;
  EXPECT_EQ(a.valid_count, b.valid_count) << "cell " << cell;
  EXPECT_EQ(a.consensus_relays, b.consensus_relays) << "cell " << cell;
  EXPECT_EQ(a.total_bytes_sent, b.total_bytes_sent) << "cell " << cell;
  EXPECT_EQ(a.bytes_by_kind, b.bytes_by_kind) << "cell " << cell;
  EXPECT_EQ(a.attack_history, b.attack_history) << "cell " << cell;
  if (a.succeeded && b.succeeded) {
    EXPECT_EQ(a.latency_seconds, b.latency_seconds) << "cell " << cell;
    EXPECT_EQ(a.finish_time_seconds, b.finish_time_seconds) << "cell " << cell;
  }
}

TEST(ScenarioTest, ParallelSweepIsBitIdenticalToSerial) {
  // A 12-cell grid mixing the hard cases for parallelism: a shared rolling
  // attack-schedule object across cells (must be cloned per cell), churn, and
  // failed cells (NaN latencies). Every thread count must reproduce the serial
  // results exactly, including the workload-cache telemetry.
  torattack::RollingAttackConfig attack_config;
  attack_config.victim_count = 5;
  attack_config.period = Minutes(1);
  attack_config.start = 0;
  attack_config.end = Minutes(4);
  const auto rolling = std::make_shared<torattack::RollingAttack>(attack_config);

  // Diff-enabled cells need a previous-round document; one healthy prep run
  // per protocol supplies it (results retain the published consensus whenever
  // the client plane is on).
  std::map<std::string, std::shared_ptr<const tordir::ConsensusDocument>> baselines;
  {
    ScenarioRunner prep;
    for (const char* protocol : {"current", "icps"}) {
      ScenarioSpec spec = SmallSpec(protocol);
      spec.client_load.client_count = 1;
      baselines[protocol] = prep.Run(spec).consensus_document;
      ASSERT_NE(baselines[protocol], nullptr) << protocol;
    }
  }

  std::vector<ScenarioSpec> specs;
  for (const char* protocol : {"current", "icps"}) {
    for (size_t relays : {200, 300}) {
      for (int variant = 0; variant < 3; ++variant) {
        ScenarioSpec spec = SmallSpec(protocol);
        spec.relay_count = relays;
        spec.horizon = torbase::Hours(1);
        if (variant != 1) {
          spec.attack = rolling;  // deliberately shared across cells
        }
        if (variant != 0) {
          spec.churn.push_back({/*node=*/7, /*at=*/Seconds(30), ChurnEvent::Kind::kCrash});
          spec.churn.push_back({/*node=*/7, /*at=*/Minutes(6), ChurnEvent::Kind::kRecover});
        }
        if (variant == 1) {
          // Byzantine cells exercise the fault-injection fields (alerts with
          // evidence timestamps, detection metrics) under the identity
          // contract too.
          spec.byzantine.behaviors[4] = torproto::ByzantineBehavior::kEquivocate;
          spec.byzantine.behaviors[5] = torproto::ByzantineBehavior::kMalformedWire;
        }
        if (variant == 2) {
          // Client load exercises the consumption-plane fields (availability
          // metrics, publish metadata, consensus size) under the identity
          // contract too — with diff serving on, so the diff codec's size
          // accounting and the byte-denominated capacity split are covered.
          spec.client_load.client_count = 2'000'000;
          spec.client_load.diff_capable_fraction = 0.8;
          spec.previous_consensus = baselines[protocol];
        }
        specs.push_back(std::move(spec));
      }
    }
  }
  ASSERT_GE(specs.size(), 12u);

  ScenarioRunner serial_runner;
  const auto serial = serial_runner.Sweep(specs);

  for (unsigned threads : {1u, 2u, 8u}) {
    ScenarioRunner parallel_runner;
    const auto parallel = parallel_runner.Sweep(specs, SweepOptions{threads});
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectSameResult(serial[i], parallel[i], i);
    }
    EXPECT_EQ(parallel_runner.workload_cache_misses(), serial_runner.workload_cache_misses())
        << threads << " threads";
    EXPECT_EQ(parallel_runner.workload_cache_hits(), serial_runner.workload_cache_hits())
        << threads << " threads";
  }
}

// --- consumption plane -------------------------------------------------------

ScenarioSpec Fig1StyleSpec(bool attacked) {
  ScenarioSpec spec = SmallSpec("current");
  spec.relay_count = 800;
  spec.horizon = torbase::Hours(1);
  spec.client_load.client_count = 1'000'000;
  if (attacked) {
    torattack::AttackWindow window;
    window.targets = torattack::FirstTargets(5);
    window.start = 0;
    window.end = Minutes(5);
    window.available_bps = torattack::kUnderAttackBps;
    spec.attack = std::make_shared<torattack::WindowedAttack>(
        std::vector<torattack::AttackWindow>{window});
  }
  return spec;
}

TEST(ClientPlaneTest, UnattackedRunServesMillionClientsFresh) {
  ScenarioRunner runner;
  const auto result = runner.Run(Fig1StyleSpec(/*attacked=*/false));
  ASSERT_TRUE(result.succeeded);

  // Publish metadata flows out of the protocol probe: published inside the
  // vote-lead window, with the generator's 1 h / 3 h validity shape.
  EXPECT_GT(result.consensus_published_seconds, 0.0);
  EXPECT_LT(result.consensus_published_seconds, 600.0);
  EXPECT_EQ(result.consensus_fresh_until, result.consensus_valid_after + 3600);
  EXPECT_EQ(result.consensus_valid_until, result.consensus_valid_after + 3 * 3600);
  EXPECT_GT(result.consensus_size_bytes, 0u);

  // A million clients, all served fresh: the new document lands before the
  // prior one goes stale.
  const auto& clients = result.client_availability;
  ASSERT_TRUE(clients.enabled);
  EXPECT_DOUBLE_EQ(clients.total_fetches, 1e6);
  EXPECT_GT(clients.fresh_fraction, 0.99);
  EXPECT_EQ(clients.outage_seconds, 0.0);
  EXPECT_EQ(clients.hard_down_seconds, 0.0);
  EXPECT_TRUE(std::isnan(clients.time_to_first_stale_seconds));
}

TEST(ClientPlaneTest, AttackedRunReportsClientVisibleOutage) {
  // The paper's title claim, client-side: a five-minute flood on 5 of 9
  // authorities breaks the round, so once the prior consensus goes stale at
  // the vote lead there is nothing fresh for the rest of the period.
  ScenarioRunner runner;
  const auto result = runner.Run(Fig1StyleSpec(/*attacked=*/true));
  ASSERT_FALSE(result.succeeded);
  EXPECT_TRUE(std::isnan(result.consensus_published_seconds));

  const auto& clients = result.client_availability;
  ASSERT_TRUE(clients.enabled);
  EXPECT_DOUBLE_EQ(clients.time_to_first_stale_seconds, 600.0);
  EXPECT_DOUBLE_EQ(clients.outage_start_seconds, 600.0);
  EXPECT_DOUBLE_EQ(clients.outage_seconds, 3000.0);
  EXPECT_NEAR(clients.fresh_fraction, 600.0 / 3600.0, 1e-9);
  // Still inside the prior document's validity: degraded, not yet halted.
  EXPECT_EQ(clients.hard_down_seconds, 0.0);
}

TEST(ClientPlaneTest, NoClientLoadLeavesTheResultInert) {
  ScenarioSpec spec = SmallSpec("current");
  ScenarioRunner runner;
  const auto result = runner.Run(spec);
  EXPECT_FALSE(result.client_availability.enabled);
  EXPECT_EQ(result.consensus_size_bytes, 0u);  // serialization skipped
  // Publish metadata is probed regardless (it is cheap and deterministic).
  EXPECT_FALSE(std::isnan(result.consensus_published_seconds));
}

// --- consensus-health monitor ------------------------------------------------

TEST(HealthMonitorWiringTest, AttackedRunRaisesTheDdosSignature) {
  ScenarioRunner runner;
  const auto result = runner.Run(Fig1StyleSpec(/*attacked=*/true));

  bool missing_votes = false;
  bool no_consensus = false;
  for (const auto& alert : result.health_alerts) {
    if (alert.kind == tordir::HealthAlertKind::kMissingVotes) {
      missing_votes = true;
      // The five flooded authorities are implicated (their votes moved
      // nowhere); observers behind clamped links may implicate more.
      for (torbase::NodeId victim : torattack::FirstTargets(5)) {
        EXPECT_NE(std::find(alert.authorities.begin(), alert.authorities.end(), victim),
                  alert.authorities.end())
            << victim;
      }
    }
    if (alert.kind == tordir::HealthAlertKind::kNoConsensus) {
      no_consensus = true;
    }
  }
  EXPECT_TRUE(missing_votes);
  EXPECT_TRUE(no_consensus);
}

TEST(HealthMonitorWiringTest, HealthyRunsRaiseNoAlertsAcrossProtocols) {
  ScenarioRunner runner;
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    const auto result = runner.Run(SmallSpec(protocol));
    EXPECT_TRUE(result.health_alerts.empty()) << protocol;
  }
}

TEST(HealthMonitorWiringTest, MonitoringCanBeDisabled) {
  ScenarioSpec spec = Fig1StyleSpec(/*attacked=*/true);
  spec.monitor_health = false;
  ScenarioRunner runner;
  EXPECT_TRUE(runner.Run(spec).health_alerts.empty());
}

// --- byzantine fault injection -----------------------------------------------

bool AlertImplicates(const tordir::HealthAlert& alert, torbase::NodeId authority) {
  return std::find(alert.authorities.begin(), alert.authorities.end(), authority) !=
         alert.authorities.end();
}

TEST(ByzantineScenarioTest, EachBehaviorIsDetectedUnderEveryProtocol) {
  // One faulty authority per run (well below every protocol's tolerance):
  // the run must stay live, the monitor must implicate exactly that
  // authority, and the behavior's signature alert kind must be present with
  // a timestamped first-evidence instant.
  struct Case {
    torproto::ByzantineBehavior behavior;
    tordir::HealthAlertKind expected;
  };
  const Case cases[] = {
      {torproto::ByzantineBehavior::kEquivocate, tordir::HealthAlertKind::kVoteEquivocation},
      {torproto::ByzantineBehavior::kReplay, tordir::HealthAlertKind::kReplayedVote},
      {torproto::ByzantineBehavior::kMalformedWire, tordir::HealthAlertKind::kMalformedVote},
      {torproto::ByzantineBehavior::kInflateBandwidth,
       tordir::HealthAlertKind::kBandwidthInflation},
  };
  ScenarioRunner runner;
  for (const char* protocol : {"current", "synchronous", "icps"}) {
    for (const Case& c : cases) {
      ScenarioSpec spec = SmallSpec(protocol);
      spec.horizon = torbase::Hours(1);
      spec.byzantine.behaviors[4] = c.behavior;
      const auto result = runner.Run(spec);
      const std::string label = std::string(protocol) + " / " +
                                torproto::ByzantineBehaviorName(c.behavior);
      EXPECT_TRUE(result.succeeded) << label;
      EXPECT_EQ(result.byzantine_count, 1u) << label;
      EXPECT_EQ(result.faults_detected, 1u) << label;
      EXPECT_FALSE(std::isnan(result.fault_detection_latency_seconds)) << label;
      bool signature_alert = false;
      for (const auto& alert : result.health_alerts) {
        if (alert.kind == c.expected && AlertImplicates(alert, 4)) {
          signature_alert = true;
          EXPECT_GE(alert.first_evidence_seconds, 0.0) << label;
        }
        // No honest authority is ever implicated by a sender-attributed
        // alert (fork/no-consensus alerts describe the outcome, not blame).
        if (alert.kind == c.expected) {
          for (const torbase::NodeId authority : alert.authorities) {
            EXPECT_EQ(authority, 4u) << label;
          }
        }
      }
      EXPECT_TRUE(signature_alert) << label;
    }
  }
}

TEST(ByzantineScenarioTest, BehaviorsOnOutOfRangeIdsNeverInstantiate) {
  ScenarioSpec spec = SmallSpec("current");
  spec.byzantine.behaviors[40] = torproto::ByzantineBehavior::kEquivocate;
  ScenarioRunner runner;
  const auto result = runner.Run(spec);
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.byzantine_count, 0u);
  EXPECT_EQ(result.faults_detected, 0u);
  EXPECT_TRUE(result.health_alerts.empty());
}

TEST(ByzantineScenarioTest, IcpsStaysLiveBelowOneThirdFaulty) {
  // f = 2 of 9: two simultaneously faulty authorities with different
  // behaviors. ICPS must still assemble a valid consensus on every honest
  // authority, and both faults must be flagged.
  ScenarioSpec spec = SmallSpec("icps");
  spec.horizon = torbase::Hours(1);
  spec.byzantine.behaviors[1] = torproto::ByzantineBehavior::kEquivocate;
  spec.byzantine.behaviors[4] = torproto::ByzantineBehavior::kReplay;
  ScenarioRunner runner;
  const auto result = runner.Run(spec);
  EXPECT_TRUE(result.succeeded);
  EXPECT_GE(result.valid_count, 7u);  // all honest authorities finish
  EXPECT_EQ(result.byzantine_count, 2u);
  EXPECT_EQ(result.faults_detected, 2u);
}

// --- BitIdentical field coverage ---------------------------------------------

// Guards the BitIdentical <-> ScenarioResult contract from both sides:
// (1) the mutation sweep below proves every *current* field participates in
// the comparison; (2) the size pin makes adding a field without revisiting
// BitIdentical (and this test) a compile error on the reference ABI.
#if defined(__GLIBCXX__) && defined(__x86_64__) && !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(ScenarioResult) == 368 && sizeof(ClientAvailabilityResult) == 120,
              "ScenarioResult changed shape: extend BitIdentical (scenario.h), the mutation "
              "sweep in ResultFieldListIsCoveredByBitIdentical, then update these constants");
#endif

TEST(ScenarioResultContractTest, ResultFieldListIsCoveredByBitIdentical) {
  const auto baseline = [] {
    ScenarioResult r;
    r.succeeded = true;
    r.valid_count = 9;
    r.latency_seconds = 1.0;
    r.finish_time_seconds = 2.0;
    r.consensus_relays = 100;
    r.total_bytes_sent = 1000;
    r.bytes_by_kind = {{"VOTE", 10}};
    r.undeliverable_messages = 3;
    r.consensus_holders = {0, 1, 2};
    r.attack_history = {torattack::AttackSample{1, {0}, 2.0}};
    r.consensus_published_seconds = 3.0;
    r.consensus_valid_after = 4;
    r.consensus_fresh_until = 5;
    r.consensus_valid_until = 6;
    r.consensus_size_bytes = 7;
    r.consensus_diff_size_bytes = 70;
    {
      auto doc = std::make_shared<tordir::ConsensusDocument>();
      doc->valid_after = 4;
      r.consensus_document = doc;
    }
    r.client_availability.enabled = true;
    r.client_availability.total_fetches = 8.0;
    r.client_availability.fresh_fetches = 9.0;
    r.client_availability.stale_fetches = 10.0;
    r.client_availability.unserved_fetches = 11.0;
    r.client_availability.fresh_fraction = 0.5;
    r.client_availability.time_to_first_stale_seconds = 12.0;
    r.client_availability.outage_seconds = 13.0;
    r.client_availability.outage_start_seconds = 14.0;
    r.client_availability.hard_down_seconds = 15.0;
    r.client_availability.hard_down_start_seconds = 16.0;
    r.client_availability.peak_backlog_fetches = 17.0;
    r.client_availability.served_bytes = 20.0;
    r.client_availability.bytes_per_client_hour = 21.0;
    r.client_availability.full_doc_bytes_per_client_hour = 22.0;
    r.health_alerts = {
        tordir::HealthAlert{tordir::HealthAlertKind::kNoConsensus, {1}, "detail", 18.0}};
    r.byzantine_count = 2;
    r.faults_detected = 2;
    r.fault_detection_latency_seconds = 19.0;
    return r;
  }();
  ASSERT_TRUE(BitIdentical(baseline, baseline));
  // NaN == NaN under this equality (failed runs carry NaN latencies).
  {
    ScenarioResult a = baseline;
    ScenarioResult b = baseline;
    a.latency_seconds = b.latency_seconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(BitIdentical(a, b));
  }

  // One mutator per field; BitIdentical must catch each in isolation.
  const std::vector<std::function<void(ScenarioResult&)>> mutators = {
      [](ScenarioResult& r) { r.succeeded = false; },
      [](ScenarioResult& r) { r.valid_count = 0; },
      [](ScenarioResult& r) { r.latency_seconds += 1; },
      [](ScenarioResult& r) { r.finish_time_seconds += 1; },
      [](ScenarioResult& r) { r.consensus_relays += 1; },
      [](ScenarioResult& r) { r.total_bytes_sent += 1; },
      [](ScenarioResult& r) { r.bytes_by_kind["VOTE"] += 1; },
      [](ScenarioResult& r) { r.undeliverable_messages += 1; },
      [](ScenarioResult& r) { r.consensus_holders.push_back(3); },
      [](ScenarioResult& r) { r.attack_history[0].at += 1; },
      [](ScenarioResult& r) { r.consensus_published_seconds += 1; },
      [](ScenarioResult& r) { r.consensus_valid_after += 1; },
      [](ScenarioResult& r) { r.consensus_fresh_until += 1; },
      [](ScenarioResult& r) { r.consensus_valid_until += 1; },
      [](ScenarioResult& r) { r.consensus_size_bytes += 1; },
      [](ScenarioResult& r) { r.consensus_diff_size_bytes += 1; },
      [](ScenarioResult& r) {
        auto doc = std::make_shared<tordir::ConsensusDocument>(*r.consensus_document);
        doc->valid_after += 1;
        r.consensus_document = doc;
      },
      [](ScenarioResult& r) { r.consensus_document = nullptr; },
      [](ScenarioResult& r) { r.client_availability.enabled = false; },
      [](ScenarioResult& r) { r.client_availability.total_fetches += 1; },
      [](ScenarioResult& r) { r.client_availability.fresh_fetches += 1; },
      [](ScenarioResult& r) { r.client_availability.stale_fetches += 1; },
      [](ScenarioResult& r) { r.client_availability.unserved_fetches += 1; },
      [](ScenarioResult& r) { r.client_availability.fresh_fraction += 0.1; },
      [](ScenarioResult& r) { r.client_availability.time_to_first_stale_seconds += 1; },
      [](ScenarioResult& r) { r.client_availability.outage_seconds += 1; },
      [](ScenarioResult& r) { r.client_availability.outage_start_seconds += 1; },
      [](ScenarioResult& r) { r.client_availability.hard_down_seconds += 1; },
      [](ScenarioResult& r) { r.client_availability.hard_down_start_seconds += 1; },
      [](ScenarioResult& r) { r.client_availability.peak_backlog_fetches += 1; },
      [](ScenarioResult& r) { r.client_availability.served_bytes += 1; },
      [](ScenarioResult& r) { r.client_availability.bytes_per_client_hour += 1; },
      [](ScenarioResult& r) { r.client_availability.full_doc_bytes_per_client_hour += 1; },
      [](ScenarioResult& r) { r.health_alerts[0].detail += "x"; },
      [](ScenarioResult& r) { r.health_alerts[0].first_evidence_seconds += 1; },
      [](ScenarioResult& r) { r.health_alerts.clear(); },
      [](ScenarioResult& r) { r.byzantine_count += 1; },
      [](ScenarioResult& r) { r.faults_detected += 1; },
      [](ScenarioResult& r) { r.fault_detection_latency_seconds += 1; },
  };
  for (size_t i = 0; i < mutators.size(); ++i) {
    ScenarioResult mutated = baseline;
    mutators[i](mutated);
    EXPECT_FALSE(BitIdentical(baseline, mutated)) << "mutator " << i;
  }
}

// A protocol registered from outside the built-ins participates in dispatch:
// the registry is genuinely pluggable, not a closed enum in disguise.
class RenamedIcps : public torproto::DirectoryProtocol {
 public:
  std::string_view name() const override { return "icps-alias"; }
  std::string_view display_name() const override { return "Ours (alias)"; }
  std::unique_ptr<torsim::Actor> MakeAuthority(const torproto::ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId id,
                                               torproto::AuthorityMaterials materials) const override {
    return torproto::GetProtocol("icps").MakeAuthority(config, directory, id,
                                                       std::move(materials));
  }
  torproto::UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    return torproto::GetProtocol("icps").ProbeOutcome(actor);
  }
  torproto::PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    return torproto::GetProtocol("icps").ProbeConsensus(actor);
  }
  std::vector<torproto::ObservedVote> ProbeVoteObservations(
      const torsim::Actor& actor) const override {
    return torproto::GetProtocol("icps").ProbeVoteObservations(actor);
  }
  std::vector<torproto::RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return torproto::GetProtocol("icps").ProbeVoteRejects(actor);
  }
};

TEST(ProtocolRegistryTest, DownstreamRegistrationIsDispatchable) {
  torproto::RegisterProtocol(std::make_unique<RenamedIcps>());
  ScenarioRunner runner;
  const auto result = runner.Run(SmallSpec("icps-alias"));
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(result.valid_count, 9u);

  // A downstream protocol feeds the health monitor through the same probes:
  // an equivocating authority raises the alias exactly the alerts it raises
  // the protocol the alias forwards to.
  ScenarioSpec alias = SmallSpec("icps-alias");
  alias.byzantine.behaviors[0] = torproto::ByzantineBehavior::kEquivocate;
  alias.monitor_health = true;
  ScenarioSpec icps = alias;
  icps.protocol = "icps";
  const auto alias_result = runner.Run(alias);
  const auto icps_result = runner.Run(icps);
  ASSERT_FALSE(icps_result.health_alerts.empty());
  EXPECT_EQ(alias_result.health_alerts, icps_result.health_alerts);
  EXPECT_EQ(alias_result.faults_detected, 1u);
}

}  // namespace
}  // namespace torscenario
