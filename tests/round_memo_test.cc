// Tests for the round memo (torproto::RoundMemo, src/protocols/authority.h):
// the content-keyed cache through which the authorities of one run share
// each distinct vote set's consensus.
//
// The memo must be invisible in results: a run whose authorities share one
// memo is bit-identical to the same run with a private memo per authority,
// for every protocol, clean and under the paper's attack, honest and
// byzantine. And it must actually share: a clean round aggregates once.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/protocols/authority.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/runner.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace torproto {
namespace {

using torscenario::ScenarioResult;
using torscenario::ScenarioRunner;
using torscenario::ScenarioSpec;

constexpr const char* kProtocols[] = {"current", "icps", "synchronous"};

// Forwards to a built-in protocol but controls which memo its authorities
// get: the run's shared memo (recorded for inspection), none (each authority
// makes a private one), or one fixed memo kept across runs.
class MemoProbe : public DirectoryProtocol {
 public:
  enum class Mode { kShared, kPrivate, kFixed };

  MemoProbe(std::string inner, Mode mode)
      : inner_name_(std::move(inner)),
        name_(inner_name_ + (mode == Mode::kShared    ? "-shared-memo"
                             : mode == Mode::kPrivate ? "-private-memo"
                                                      : "-fixed-memo")),
        mode_(mode) {}

  std::string_view name() const override { return name_; }
  std::string_view display_name() const override { return name_; }

  std::unique_ptr<Authority> MakeAuthority(const ProtocolRunConfig& config,
                                           const torcrypto::KeyDirectory* directory,
                                           torbase::NodeId id,
                                           AuthorityMaterials materials) const override {
    switch (mode_) {
      case Mode::kShared:
        memo_ = materials.memo;
        break;
      case Mode::kPrivate:
        materials.memo = nullptr;
        break;
      case Mode::kFixed:
        if (memo_ == nullptr) {
          memo_ = std::make_shared<RoundMemo>();
        }
        materials.memo = memo_;
        break;
    }
    return inner().MakeAuthority(config, directory, id, std::move(materials));
  }

  // The memo the last run's authorities shared (kShared) or the fixed memo.
  const RoundMemo& memo() const { return *memo_; }

 private:
  const DirectoryProtocol& inner() const { return GetProtocol(inner_name_); }

  std::string inner_name_;
  std::string name_;
  Mode mode_;
  mutable std::shared_ptr<RoundMemo> memo_;
};

// Registers (once) and returns the probe of `protocol` in `mode`.
const MemoProbe& Probe(const std::string& protocol, MemoProbe::Mode mode) {
  auto probe = std::make_unique<MemoProbe>(protocol, mode);
  const std::string name(probe->name());
  if (FindProtocol(name) == nullptr) {
    RegisterProtocol(std::move(probe));
  }
  return static_cast<const MemoProbe&>(GetProtocol(name));
}

// 2000 relays: votes large enough that the paper's attack (authorities 0-4
// at 0.5 Mbit/s for five minutes) makes current and synchronous fail and
// ICPS recover, with the health monitor and client plane on.
ScenarioSpec Cell(const std::string& protocol, bool attacked) {
  ScenarioSpec spec;
  spec.name = "round-memo";
  spec.protocol = protocol;
  spec.relay_count = 2000;
  spec.seed = 4;
  spec.horizon = torbase::Hours(2);
  spec.monitor_health = true;
  spec.retain_consensus = true;
  spec.client_load.client_count = 100000;
  if (attacked) {
    torattack::AttackWindow window;
    window.targets = torattack::FirstTargets(5);
    window.start = 0;
    window.end = torbase::Minutes(5);
    window.available_bps = torattack::kUnderAttackBps;
    spec.attack = std::make_shared<torattack::WindowedAttack>(
        std::vector<torattack::AttackWindow>{window});
  }
  return spec;
}

ScenarioResult RunAs(ScenarioRunner& runner, ScenarioSpec spec, const MemoProbe& probe) {
  spec.protocol = std::string(probe.name());
  return runner.Run(spec);
}

TEST(RoundMemoTest, SharedMemoIsBitIdenticalToPrivateMemos) {
  ScenarioRunner runner;
  for (const std::string protocol : kProtocols) {
    for (const bool attacked : {false, true}) {
      const ScenarioSpec spec = Cell(protocol, attacked);
      const ScenarioResult shared = runner.Run(spec);
      const ScenarioResult private_memos =
          RunAs(runner, spec, Probe(protocol, MemoProbe::Mode::kPrivate));
      EXPECT_TRUE(torscenario::BitIdentical(shared, private_memos))
          << protocol << (attacked ? " attacked" : " clean");
      if (!attacked) {
        EXPECT_EQ(shared.valid_count, 9u) << protocol;
      } else {
        // The paper's outcome: the lock-step protocols fail, ICPS publishes.
        EXPECT_EQ(shared.succeeded, protocol == "icps") << protocol;
      }
    }
  }
}

TEST(RoundMemoTest, CleanRoundAggregatesOncePerRun) {
  ScenarioRunner runner;
  for (const std::string protocol : kProtocols) {
    const MemoProbe& probe = Probe(protocol, MemoProbe::Mode::kShared);
    const ScenarioResult result = RunAs(runner, Cell(protocol, false), probe);
    ASSERT_EQ(result.valid_count, 9u) << protocol;
    EXPECT_EQ(probe.memo().consensus_entries(), 1u) << protocol;
  }
}

// One memo kept across a clean cell and a byzantine cell: entries are keyed
// by content, so the faulty cell reuses the clean entry only for authorities
// that admitted exactly the clean vote set, gets its own entries for the
// faulty bodies, and its results stay what private memos produce.
TEST(RoundMemoTest, FaultyBodiesGetTheirOwnEntries) {
  for (const ByzantineBehavior behavior :
       {ByzantineBehavior::kEquivocate, ByzantineBehavior::kInflateBandwidth}) {
    SCOPED_TRACE(ByzantineBehaviorName(behavior));
    ScenarioRunner runner;
    runner.set_memoize(false);
    RegisterProtocol(std::make_unique<MemoProbe>("current", MemoProbe::Mode::kFixed));
    const MemoProbe& fixed = Probe("current", MemoProbe::Mode::kFixed);

    const ScenarioResult clean = RunAs(runner, Cell("current", false), fixed);
    ASSERT_EQ(clean.valid_count, 9u);
    EXPECT_EQ(fixed.memo().consensus_entries(), 1u);

    ScenarioSpec faulty = Cell("current", false);
    faulty.byzantine.behaviors[0] = behavior;
    const ScenarioResult with_fixed = RunAs(runner, faulty, fixed);
    const ScenarioResult with_private =
        RunAs(runner, faulty, Probe("current", MemoProbe::Mode::kPrivate));
    EXPECT_TRUE(torscenario::BitIdentical(with_fixed, with_private));
    EXPECT_EQ(with_fixed.faults_detected, 1u);
    // Equivocation: the even peers (and the equivocator itself) hold the
    // clean set, the odd peers the variant's set. Inflation: every authority
    // holds the inflated vote.
    EXPECT_EQ(fixed.memo().consensus_entries(), 2u);
  }
}

std::vector<RoundMemo::Vote> SmallVoteSet(uint32_t authorities) {
  tordir::PopulationConfig config;
  config.relay_count = 100;
  config.seed = 8;
  std::vector<RoundMemo::Vote> votes;
  for (tordir::VoteDocument& vote :
       tordir::MakeAllVotes(authorities, tordir::GeneratePopulation(config), config)) {
    auto document = std::make_shared<const tordir::VoteDocument>(std::move(vote));
    votes.push_back({tordir::VoteDigest(*document), std::move(document)});
  }
  return votes;
}

TEST(RoundMemoTest, ShuffledVoteOrderHitsTheSameEntry) {
  std::vector<RoundMemo::Vote> votes = SmallVoteSet(9);
  std::vector<const tordir::VoteDocument*> documents;
  for (const RoundMemo::Vote& vote : votes) {
    documents.push_back(vote.document.get());
  }
  const tordir::ConsensusDocument expected = tordir::ComputeConsensus(documents);

  RoundMemo memo;
  const RoundMemo::Consensus& first = memo.Aggregate(votes, {});
  EXPECT_EQ(*first.document, expected);
  EXPECT_EQ(first.digest, tordir::ConsensusDigest(expected));

  std::mt19937 rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    std::shuffle(votes.begin(), votes.end(), rng);
    EXPECT_EQ(&memo.Aggregate(votes, {}), &first) << "trial " << trial;
  }
  EXPECT_EQ(memo.consensus_entries(), 1u);

  // A different vote set or different parameters are different entries,
  // also when one body is swapped for another of the same author (the
  // equivocation variant).
  tordir::VoteDocument variant = *votes[0].document;
  variant.fresh_until += 1;
  std::vector<RoundMemo::Vote> swapped = votes;
  swapped[0] = {tordir::VoteDigest(variant),
                std::make_shared<const tordir::VoteDocument>(std::move(variant))};
  EXPECT_NE(&memo.Aggregate(swapped, {}), &first);
  votes.pop_back();
  EXPECT_NE(&memo.Aggregate(votes, {}), &first);
  tordir::AggregationParams fixed_threshold;
  fixed_threshold.fixed_inclusion_threshold = 3;
  EXPECT_NE(&memo.Aggregate(votes, fixed_threshold), &first);
  EXPECT_EQ(memo.consensus_entries(), 4u);
}

}  // namespace
}  // namespace torproto
