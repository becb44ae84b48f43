// Throughput floors for the hot paths under a round, at Tor scale (8k relays):
// the vote codec, the consensus diff patch merge, the SHA-NI vote digest and
// the multi-round timeline engine; and the synchronous protocol's warm round
// against the deployed protocol's. The absolute floors sit 5-260x below what
// the code measures on a 4-vCPU x86 host and far above the slow designs it
// replaced, so a structural regression (per-field temporaries, per-row
// reparsing, a lost result memo) trips them on any hardware tier. The SHA-NI
// ratio floor is tighter: the serial digest measures 4.3-4.7x against its 4x,
// and a rolled SHA-NI core dipped below it.
//
// Absolute throughput means something only in optimized, unsanitized builds:
// TSan/ASan cost ~10-80x and -O0 ~5-10x. Every floor therefore skips under
// TSan, ASan or !NDEBUG. ctest runs this binary alone (RUN_SERIAL) under the
// label `perf`; `ctest -L perf -V` prints each measured value next to its
// floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/crypto/sha256.h"
#include "src/scenario/runner.h"
#include "src/scenario/timeline.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || !defined(NDEBUG)
constexpr bool kThroughputFloorsApply = false;
#else
constexpr bool kThroughputFloorsApply = true;
#endif

constexpr size_t kRelays = 8000;

// Streaming serializer and cursor parser: ~719 / ~212 MB/s before the codec
// rewrite, several GB/s after.
constexpr double kMinSerializeMbps = 1000.0;
constexpr double kMinParseMbps = 400.0;
// The patch merge is bulk copies between edit points.
constexpr double kMinPatchMergeMbps = 1024.0 * 1024.0 * 1024.0 / 1e6;  // 1 GiB/s
// TreeVoteDigest (serialize + SHA-NI tree hash) against the scalar core
// hashing the same bytes in the same process, so the ratio is
// hardware-independent.
constexpr double kMinVoteDigestSpeedupOverScalar = 4.0;
// ~4 rounds/s before the spec-digest result memo.
constexpr double kMinTimelineRoundsPerSecond = 12.0;
// A warm synchronous round at most this many times a warm current round. Both
// aggregate once and exchange O(n^2) small messages; synchronous's n^2 packed
// votes carry pointers and its Dolev-Strong digest hashes ~400 bytes. The
// ratio measures ~1.0x, and ~3.5x when the digest streamed over the 28 MB of
// packed lists, so any O(bytes) pass returning to the round trips it.
constexpr double kMaxSynchronousOverCurrentRound = 2.0;

using Clock = std::chrono::steady_clock;

// Mean wall seconds per call of `op` over `calls` back-to-back calls.
template <typename Op>
double SecondsPerCall(int calls, Op&& op) {
  const auto start = Clock::now();
  for (int i = 0; i < calls; ++i) {
    op();
  }
  return std::chrono::duration<double>(Clock::now() - start).count() / calls;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

tordir::PopulationConfig TorScaleConfig() {
  tordir::PopulationConfig config;
  config.relay_count = kRelays;
  config.seed = 3;
  return config;
}

tordir::VoteDocument TorScaleVote() {
  const tordir::PopulationConfig config = TorScaleConfig();
  return tordir::MakeVote(0, 9, tordir::GeneratePopulation(config), config);
}

class PerfFloorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kThroughputFloorsApply) {
      GTEST_SKIP() << "throughput floors apply only to optimized, unsanitized builds";
    }
  }
};

TEST_F(PerfFloorTest, SerializeVote) {
  const tordir::VoteDocument vote = TorScaleVote();
  std::string text = tordir::SerializeVote(vote);  // warm-up: interns, heap
  const size_t bytes = text.size();
  const double seconds = SecondsPerCall(20, [&] { text = tordir::SerializeVote(vote); });
  ASSERT_EQ(text.size(), bytes);
  const double mbps = static_cast<double>(bytes) / 1e6 / seconds;
  std::printf("SerializeVote, %zu relays: %.0f MB/s (floor %.0f)\n", kRelays, mbps,
              kMinSerializeMbps);
  EXPECT_GE(mbps, kMinSerializeMbps);
}

TEST_F(PerfFloorTest, ParseVote) {
  const tordir::VoteDocument vote = TorScaleVote();
  const std::string text = tordir::SerializeVote(vote);
  auto parsed = tordir::ParseVote(text);  // warm-up
  const double seconds = SecondsPerCall(20, [&] { parsed = tordir::ParseVote(text); });
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->relays.size(), vote.relays.size());
  const double mbps = static_cast<double>(text.size()) / 1e6 / seconds;
  std::printf("ParseVote, %zu relays: %.0f MB/s (floor %.0f)\n", kRelays, mbps, kMinParseMbps);
  EXPECT_GE(mbps, kMinParseMbps);
}

TEST_F(PerfFloorTest, DiffPatchMerge) {
  // A signed consensus and its successor at the live network's churn (1% of
  // rows changed, 0.5% removed, 0.5% added). The target digest check is off:
  // it is one more SHA-256 pass, floored by the vote digest row below, and
  // byte identity is asserted against the target serialization instead.
  const tordir::PopulationConfig config = TorScaleConfig();
  tordir::ConsensusDocument base = tordir::ComputeConsensus(
      tordir::MakeAllVotes(9, tordir::GeneratePopulation(config), config));
  for (uint32_t a = 0; a < 9; ++a) {
    torcrypto::Signature sig;
    sig.signer = a;
    sig.bytes.fill(static_cast<uint8_t>(0xB0 + a));
    base.signatures.push_back(sig);
  }
  const tordir::ConsensusDocument next = tordir::ChurnConsensus(base, {0.01, 0.005, 0.005, 3});
  const std::string base_text = tordir::SerializeConsensus(base);
  const std::string target_text = tordir::SerializeConsensus(next);
  const std::string diff = tordir::ComputeConsensusDiff(base, next);

  tordir::ApplyDiffOptions patch_only;
  patch_only.verify_target = false;
  auto patched = tordir::ApplyConsensusDiff(base_text, diff, patch_only);  // warm-up
  const double seconds = SecondsPerCall(
      40, [&] { patched = tordir::ApplyConsensusDiff(base_text, diff, patch_only); });
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  ASSERT_EQ(*patched, target_text);
  const double mbps = static_cast<double>(target_text.size()) / 1e6 / seconds;
  std::printf("diff patch merge, %zu relays: %.0f MB/s (floor %.0f)\n", kRelays, mbps,
              kMinPatchMergeMbps);
  EXPECT_GE(mbps, kMinPatchMergeMbps);
}

TEST_F(PerfFloorTest, VoteDigestOverScalar) {
  if (torcrypto::ActiveSha256Backend() != torcrypto::Sha256Backend::kShaNi) {
    GTEST_SKIP() << "the ratio floor applies to the SHA-NI core; active backend is "
                 << torcrypto::Sha256BackendName(torcrypto::ActiveSha256Backend());
  }
  const tordir::VoteDocument vote = TorScaleVote();
  const std::string text = tordir::SerializeVote(vote);
  const auto scalar_once = [&] {
    return torcrypto::Sha256DigestForBackend(torcrypto::Sha256Backend::kScalar,
                                             std::string_view(text));
  };
  const torcrypto::Digest256 expected_tree = tordir::TreeVoteDigest(vote);  // warm-up
  torcrypto::Digest256 tree = expected_tree;
  std::array<uint8_t, torcrypto::kSha256DigestSize> scalar = scalar_once();

  // Interleaved samples, so drift on a shared host lands on both sides; the
  // floor compares their medians.
  constexpr int kSamples = 9;
  constexpr int kCallsPerSample = 5;
  std::vector<double> scalar_seconds;
  std::vector<double> fast_seconds;
  for (int i = 0; i < kSamples; ++i) {
    scalar_seconds.push_back(SecondsPerCall(kCallsPerSample, [&] { scalar = scalar_once(); }));
    fast_seconds.push_back(
        SecondsPerCall(kCallsPerSample, [&] { tree = tordir::TreeVoteDigest(vote); }));
  }
  ASSERT_EQ(tree, expected_tree);
  ASSERT_EQ(scalar, torcrypto::Sha256Digest(std::string_view(text)));
  const double speedup = Median(scalar_seconds) / Median(fast_seconds);
  std::printf("TreeVoteDigest over scalar SHA-256, %zu relays: %.2fx (floor %.1fx)\n", kRelays,
              speedup, kMinVoteDigestSpeedupOverScalar);
  EXPECT_GE(speedup, kMinVoteDigestSpeedupOverScalar);
}

TEST_F(PerfFloorTest, TimelineRoundsPerSecond) {
  // 24 hourly rounds of `current` at 800 relays with 5M clients, under a fault
  // calendar: a knock-out flood on rounds 8-11, an authority crash spanning
  // published rounds (diff-chain rejoin), a churn blip. A regression anywhere
  // in the stack (simulation, stitch, diff codec, client plane, result memo)
  // drags rounds/s down.
  torscenario::TimelineSpec timeline;
  timeline.name = "perf_timeline";
  timeline.rounds = 24;
  timeline.round_period = torbase::Hours(1);
  timeline.base.name = "perf_timeline";
  timeline.base.protocol = "current";
  timeline.base.relay_count = 800;
  timeline.base.client_load.client_count = 5'000'000;
  timeline.base.client_load.diff_capable_fraction = 0.8;

  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = 0.0;
  timeline.attacks.push_back(torscenario::AttackCalendarEntry{
      8, 11,
      std::make_shared<torattack::WindowedAttack>(std::vector<torattack::AttackWindow>{window})});
  timeline.crashes.push_back(
      torscenario::CrashCalendarEntry{7, 2, torbase::Minutes(1), 5, torbase::Minutes(2)});
  timeline.churn.push_back(torscenario::ChurnCalendarEntry{
      20, {8, torbase::Seconds(30), torscenario::ChurnEvent::Kind::kCrash}});
  timeline.churn.push_back(torscenario::ChurnCalendarEntry{
      20, {8, torbase::Minutes(5), torscenario::ChurnEvent::Kind::kRecover}});

  torscenario::ScenarioRunner runner;
  torscenario::TimelineResult result;
  // threads = 0: one sweep worker per hardware thread.
  const double seconds = SecondsPerCall(
      1, [&] { result = runner.RunTimeline(timeline, torscenario::SweepOptions{0}); });
  ASSERT_GT(result.successful_rounds, 0u);
  const double rounds_per_second = timeline.rounds / seconds;
  std::printf("24-round fault-calendar timeline: %.1f rounds/s (floor %.1f)\n",
              rounds_per_second, kMinTimelineRoundsPerSecond);
  EXPECT_GE(rounds_per_second, kMinTimelineRoundsPerSecond);
}

TEST_F(PerfFloorTest, SynchronousRoundNearCurrentRound) {
  torscenario::ScenarioSpec current;
  current.name = "perf_round";
  current.protocol = "current";
  current.relay_count = kRelays;
  current.horizon = torbase::Hours(2);
  torscenario::ScenarioSpec synchronous = current;
  synchronous.protocol = "synchronous";

  // One runner with the result memo off: the workload is built once, and
  // every Run simulates its round from the shared, warm workload.
  torscenario::ScenarioRunner runner;
  runner.set_memoize(false);
  ASSERT_EQ(runner.Run(current).valid_count, 9u);  // warm-up
  ASSERT_EQ(runner.Run(synchronous).valid_count, 9u);

  // Interleaved samples, so drift on a shared host lands on both sides; the
  // floor compares their medians.
  constexpr int kSamples = 9;
  std::vector<double> current_seconds;
  std::vector<double> synchronous_seconds;
  for (int i = 0; i < kSamples; ++i) {
    current_seconds.push_back(SecondsPerCall(1, [&] { runner.Run(current); }));
    synchronous_seconds.push_back(SecondsPerCall(1, [&] { runner.Run(synchronous); }));
  }
  const double ratio = Median(synchronous_seconds) / Median(current_seconds);
  std::printf("warm synchronous round over warm current round, %zu relays: %.2fx (max %.1fx)\n",
              kRelays, ratio, kMaxSynchronousOverCurrentRound);
  EXPECT_LE(ratio, kMaxSynchronousOverCurrentRound);
}

}  // namespace
