// Security tests across the three protocols:
//
//   * The Luo et al. equivocation attack against the deployed protocol: a
//     single compromised authority sends different votes to different peers
//     and signs both resulting consensus documents, leaving the network split
//     over two *valid* consensuses (why Table 1 marks Current "Insecure").
//   * The Synchronous protocol's Dolev-Strong round defeats the same attack.
//   * The ICPS witness-directed document fetch: nodes that never received a
//     document named by the agreed vector retrieve it from proof witnesses.
//   * Byzantine vote bodies: a malformed-wire body is refused at admission
//     exactly as its bytes were before bodies existed, and attributed to its
//     sender; an equivocation variant is its own body with its own digest.
//   * Consensus freshness rules and the three-hour availability horizon that
//     turns hourly consensus failures into a full network outage.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/core/digest_vector.h"
#include "src/core/icps_authority.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/common.h"
#include "src/protocols/directory_protocol.h"
#include "src/protocols/current/current_authority.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/sim/actor.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/freshness.h"
#include "src/tordir/generator.h"

namespace {

using torbase::NodeId;
using torbase::Seconds;

// Builds a vote set where relay[0]'s Guard flag is set in exactly
// `guard_votes` of the honest votes — the knife-edge the equivocator exploits.
std::vector<tordir::VoteDocument> MakeKnifeEdgeVotes(uint32_t n, uint32_t guard_votes) {
  tordir::PopulationConfig config;
  config.relay_count = 60;
  config.seed = 13;
  tordir::VoteViewConfig view;
  view.p_missing = 0.0;
  view.p_flag_flip = 0.0;
  const auto population = tordir::GeneratePopulation(config);
  auto votes = tordir::MakeAllVotes(n, population, config, view);
  for (uint32_t a = 0; a < n; ++a) {
    votes[a].relays[0].SetFlag(tordir::RelayFlag::kGuard, a < guard_votes + 1 && a != 0);
  }
  return votes;
}

// The compromised authority (id 0) in the *current* protocol: posts vote A
// (Guard set on relay[0]) to one half of the peers and vote B (Guard unset) to
// the other half, then signs whatever consensus digest each half computes.
class EquivocatingCurrentAuthority : public torsim::Actor {
 public:
  EquivocatingCurrentAuthority(const torproto::ProtocolConfig& config,
                               const torcrypto::KeyDirectory* directory,
                               tordir::VoteDocument own_vote)
      : config_(config), directory_(directory), vote_a_(std::move(own_vote)) {
    vote_b_ = vote_a_;
    vote_a_.relays[0].SetFlag(tordir::RelayFlag::kGuard, true);
    vote_b_.relays[0].SetFlag(tordir::RelayFlag::kGuard, false);
  }

  void Start() override {
    // Round 1: equivocate the vote.
    const std::string text_a = tordir::SerializeVote(vote_a_);
    const std::string text_b = tordir::SerializeVote(vote_b_);
    for (NodeId peer = 1; peer < node_count(); ++peer) {
      torbase::Writer w;
      w.WriteU8(1);  // kVotePost
      w.WriteU64(now());
      SendTo(peer, "VOTE",
             torsim::Message(w.TakeBuffer(), {torcrypto::Body(peer <= 4 ? text_a : text_b)}));
    }
    // Round 3: compute both consensus variants and sign both digests.
    SetTimer(2 * config_.round_length + torbase::Millis(100), [this] { SignBothForks(); });
  }

  void OnMessage(NodeId from, const torbase::Bytes& payload) override {
    torbase::Reader r(payload);
    auto type = r.ReadU8();
    if (!type.ok() || *type != 1) {
      return;  // only collect honest votes
    }
    auto posted_at = r.ReadU64();
    if (!posted_at.ok() || bodies().size() != 1) {
      return;
    }
    auto parsed = tordir::ParseVote(bodies()[0].text());
    if (parsed.ok()) {
      honest_votes_.emplace(from, std::move(*parsed));
    }
  }

 private:
  void SignBothForks() {
    const auto signer = directory_->SignerFor(id());
    for (const tordir::VoteDocument* own : {&vote_a_, &vote_b_}) {
      std::vector<const tordir::VoteDocument*> votes;
      votes.push_back(own);
      for (const auto& [author, vote] : honest_votes_) {
        votes.push_back(&vote);
      }
      const auto consensus = tordir::ComputeConsensus(votes, config_.aggregation);
      const auto digest = tordir::ConsensusDigest(consensus);
      const auto sig = signer.Sign(digest.span());
      torbase::Writer w;
      w.WriteU8(4);  // kSigPost
      w.WriteU64(now());
      w.WriteRaw(digest.span());
      w.WriteU32(sig.signer);
      w.WriteRaw(sig.bytes);
      // Vote A went to peers 1..4; its consensus fork gets our signature
      // there, the B fork everywhere else.
      const bool is_a = own == &vote_a_;
      for (NodeId peer = 1; peer < node_count(); ++peer) {
        if ((peer <= 4) == is_a) {
          SendTo(peer, "SIG", w.buffer());
        }
      }
    }
  }

  torproto::ProtocolConfig config_;
  const torcrypto::KeyDirectory* directory_;
  tordir::VoteDocument vote_a_;
  tordir::VoteDocument vote_b_;
  std::map<NodeId, tordir::VoteDocument> honest_votes_;
};

TEST(SecurityTest, CurrentProtocolSplitsUnderEquivocation) {
  // Luo et al.'s attack: one compromised authority, two valid consensuses.
  torproto::ProtocolConfig config;
  auto votes = MakeKnifeEdgeVotes(9, /*guard_votes=*/4);
  torcrypto::KeyDirectory directory(42, 9);

  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  harness.AddActor(std::make_unique<EquivocatingCurrentAuthority>(config, &directory,
                                                                  std::move(votes[0])));
  std::vector<torproto::CurrentAuthority*> honest;
  for (NodeId a = 1; a < 9; ++a) {
    honest.push_back(static_cast<torproto::CurrentAuthority*>(harness.AddActor(
        std::make_unique<torproto::CurrentAuthority>(
            config, &directory, torproto::AuthorityMaterials::Own(std::move(votes[a]))))));
  }
  harness.StartAll();
  harness.sim().Run();

  // Every honest authority ends up with a *valid* consensus...
  std::set<torcrypto::Digest256> digests;
  for (const auto* authority : honest) {
    ASSERT_TRUE(authority->outcome().valid_consensus);
    EXPECT_TRUE(tordir::ValidateConsensusSignatures(authority->outcome().consensus, directory, 9));
    digests.insert(tordir::ConsensusDigest(authority->outcome().consensus));
  }
  // ...but they are split across two different documents: the equivocation
  // attack succeeded against the deployed protocol.
  EXPECT_EQ(digests.size(), 2u);

  // The forks differ exactly in the Guard flag the attacker straddled.
  const auto& fork_a = honest[0]->outcome().consensus;   // authority 1 (group A)
  const auto& fork_b = honest.back()->outcome().consensus;  // authority 8 (group B)
  ASSERT_FALSE(fork_a.relays.empty());
  EXPECT_NE(fork_a.relays[0].HasFlag(tordir::RelayFlag::kGuard),
            fork_b.relays[0].HasFlag(tordir::RelayFlag::kGuard));
}

// The same equivocation against the Synchronous protocol: the compromised
// authority equivocates its relay list in the propose round but the
// Dolev-Strong round pins a single packed vote, so all honest authorities
// aggregate the same lists.
class EquivocatingSyncProposer : public torsim::Actor {
 public:
  explicit EquivocatingSyncProposer(tordir::VoteDocument vote) : vote_a_(std::move(vote)) {
    vote_b_ = vote_a_;
    vote_a_.relays[0].SetFlag(tordir::RelayFlag::kGuard, true);
    vote_b_.relays[0].SetFlag(tordir::RelayFlag::kGuard, false);
  }
  void Start() override {
    const std::string text_a = tordir::SerializeVote(vote_a_);
    const std::string text_b = tordir::SerializeVote(vote_b_);
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer == id()) {
        continue;
      }
      SendTo(peer, "SYNC_PROPOSE",
             torsim::Message(torbase::Bytes{1},  // kProposePost
                             {torcrypto::Body(peer % 2 == 0 ? text_a : text_b)}));
    }
  }
  void OnMessage(NodeId, const torbase::Bytes&) override {}

 private:
  tordir::VoteDocument vote_a_;
  tordir::VoteDocument vote_b_;
};

TEST(SecurityTest, SynchronousProtocolResistsVoteEquivocation) {
  torproto::ProtocolConfig config;
  auto votes = MakeKnifeEdgeVotes(9, /*guard_votes=*/4);
  torcrypto::KeyDirectory directory(42, 9);

  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  // The equivocator is authority 3 (not the designated Dolev-Strong sender).
  std::vector<torproto::SyncAuthority*> honest;
  for (NodeId a = 0; a < 9; ++a) {
    if (a == 3) {
      harness.AddActor(std::make_unique<EquivocatingSyncProposer>(std::move(votes[a])));
    } else {
      honest.push_back(static_cast<torproto::SyncAuthority*>(harness.AddActor(
          std::make_unique<torproto::SyncAuthority>(
              config, &directory, torproto::AuthorityMaterials::Own(std::move(votes[a]))))));
    }
  }
  harness.StartAll();
  harness.sim().Run();

  std::set<torcrypto::Digest256> digests;
  for (const auto* authority : honest) {
    ASSERT_TRUE(authority->outcome().valid_consensus);
    digests.insert(tordir::ConsensusDigest(authority->outcome().consensus));
  }
  // One agreed packed vote -> one consensus document.
  EXPECT_EQ(digests.size(), 1u);
}

// A disseminator that sends its (single, honestly signed) document to only a
// subset of peers and otherwise stays silent — the scenario where the ICPS
// aggregation phase must fetch the document from proof witnesses.
class SelectiveDisseminator : public torsim::Actor {
 public:
  SelectiveDisseminator(const torcrypto::KeyDirectory* directory, tordir::VoteDocument vote,
                        std::set<NodeId> recipients)
      : directory_(directory), vote_(std::move(vote)), recipients_(std::move(recipients)) {}

  void Start() override {
    const torcrypto::Body body(tordir::SerializeVote(vote_));
    const auto sig =
        directory_->SignerFor(id()).Sign(toricc::EntryPayload(id(), body.digest()));
    for (NodeId peer : recipients_) {
      torbase::Writer w;
      w.WriteU8(0x10);  // kDocument
      w.WriteRaw(body.digest().span());
      w.WriteU32(sig.signer);
      w.WriteRaw(sig.bytes);
      SendTo(peer, "DOCUMENT", torsim::Message(w.TakeBuffer(), {body}));
    }
  }
  void OnMessage(NodeId, const torbase::Bytes&) override {}

 private:
  const torcrypto::KeyDirectory* directory_;
  tordir::VoteDocument vote_;
  std::set<NodeId> recipients_;
};

TEST(SecurityTest, IcpsFetchesWithheldDocumentsFromWitnesses) {
  toricc::IcpsConfig config;
  config.dissemination_timeout = Seconds(30);
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = 150;
  pop_config.seed = 21;
  const auto population = tordir::GeneratePopulation(pop_config);
  auto votes = tordir::MakeAllVotes(9, population, pop_config);
  torcrypto::KeyDirectory directory(42, 9);

  torsim::NetworkConfig net_config;
  net_config.node_count = 9;
  net_config.default_bandwidth_bps = 250e6;
  net_config.default_latency = torbase::Millis(50);
  torsim::Harness harness(net_config);

  // Node 2 sends its document only to nodes 0..5: nodes 6-8 never see it
  // during dissemination, yet f+1 witnesses prove it exists.
  std::vector<toricc::IcpsAuthority*> honest;
  for (NodeId a = 0; a < 9; ++a) {
    if (a == 2) {
      harness.AddActor(std::make_unique<SelectiveDisseminator>(&directory, std::move(votes[a]),
                                                               std::set<NodeId>{0, 1, 3, 4, 5}));
    } else {
      honest.push_back(static_cast<toricc::IcpsAuthority*>(harness.AddActor(
          std::make_unique<toricc::IcpsAuthority>(
              config, &directory, torproto::AuthorityMaterials::Own(std::move(votes[a]))))));
    }
  }
  harness.StartAll();
  harness.sim().Run();

  std::set<torcrypto::Digest256> digests;
  for (const auto* authority : honest) {
    ASSERT_TRUE(authority->outcome().decided);
    ASSERT_TRUE(authority->outcome().valid_consensus);
    digests.insert(tordir::ConsensusDigest(authority->outcome().consensus));
  }
  EXPECT_EQ(digests.size(), 1u);
}

// --- byzantine vote bodies -----------------------------------------------------

// A 9-authority workload the way the scenario runner builds it: canonical
// vote bodies whose digests key the shared VoteCache.
struct BodyWorkload {
  std::vector<std::shared_ptr<const tordir::VoteDocument>> votes;
  std::vector<torcrypto::Body> bodies;
  std::shared_ptr<tordir::VoteCache> cache = std::make_shared<tordir::VoteCache>();

  BodyWorkload() {
    tordir::PopulationConfig config;
    config.relay_count = 120;
    config.seed = 17;
    for (tordir::VoteDocument& vote :
         tordir::MakeAllVotes(9, tordir::GeneratePopulation(config), config)) {
      votes.push_back(std::make_shared<const tordir::VoteDocument>(std::move(vote)));
      bodies.emplace_back(tordir::SerializeVote(*votes.back()));
      cache->Add(bodies.back().digest(),
                 tordir::CachedVote{votes.back(), bodies.back().shared_text()});
    }
    cache->Seal();
  }

  torproto::AuthorityMaterials Honest(NodeId id) const {
    return torproto::AuthorityMaterials{votes[id], bodies[id], cache, {}, nullptr};
  }
  uint64_t period_start() const { return votes[0]->valid_after; }
};

// Runs `protocol` with authority `faulty` built from `faulty_materials` and
// returns the authorities once the round is over.
std::vector<torproto::Authority*> RunWithFaulty(
    torsim::Harness& harness, const torproto::DirectoryProtocol& protocol,
    const torcrypto::KeyDirectory& directory, const BodyWorkload& workload, NodeId faulty,
    const torproto::AuthorityMaterials& faulty_materials) {
  torproto::ProtocolRunConfig run_config;
  std::vector<torproto::Authority*> authorities;
  for (NodeId a = 0; a < 9; ++a) {
    std::unique_ptr<torproto::Authority> authority = protocol.MakeAuthority(
        run_config, &directory, a, a == faulty ? faulty_materials : workload.Honest(a));
    authorities.push_back(authority.get());
    harness.AddActor(std::move(authority));
  }
  harness.RunUntil(torbase::Hours(1));
  return authorities;
}

torsim::NetworkConfig FastNetwork() {
  torsim::NetworkConfig config;
  config.node_count = 9;
  config.default_bandwidth_bps = 250e6;
  config.default_latency = torbase::Millis(50);
  return config;
}

TEST(SecurityTest, MalformedWireBodyIsRejectedAndAttributedAsBefore) {
  const BodyWorkload workload;
  constexpr NodeId kFaulty = 5;
  torproto::ByzantineSpec spec;
  spec.behaviors[kFaulty] = torproto::ByzantineBehavior::kMalformedWire;
  const torproto::AuthorityMaterials faulty = torproto::MakeFaultyMaterials(
      workload.Honest(kFaulty), torproto::ByzantineBehavior::kMalformedWire, spec, kFaulty);
  ASSERT_TRUE(faulty.vote_body.has_value());
  EXPECT_EQ(faulty.vote_body.digest(), torcrypto::Digest256::Of(faulty.vote_body.text()));

  // The body path refuses the mutant exactly as the plain-bytes path does.
  const tordir::VoteAdmission as_text =
      tordir::AdmitVote(workload.cache, faulty.vote_body.text(), workload.period_start());
  const tordir::VoteAdmission as_body =
      tordir::AdmitVote(workload.cache, faulty.vote_body, workload.period_start());
  ASSERT_FALSE(as_text.status.ok());
  EXPECT_EQ(as_body.status.ToString(), as_text.status.ToString());
  EXPECT_EQ(as_body.reason, as_text.reason);
  EXPECT_EQ(as_body.author, as_text.author);
  EXPECT_NE(as_body.reason, tordir::VoteRejectReason::kStaleWindow);

  // In every protocol, each honest receiver of the direct post refuses it
  // with that reason and pins it on the wire sender, and nobody else.
  const torcrypto::KeyDirectory directory(42, 9);
  for (const char* name : {"current", "synchronous", "icps"}) {
    const torproto::DirectoryProtocol& protocol = torproto::GetProtocol(name);
    torsim::Harness harness(FastNetwork());
    const auto authorities =
        RunWithFaulty(harness, protocol, directory, workload, kFaulty, faulty);
    for (NodeId a = 0; a < 9; ++a) {
      if (a == kFaulty) {
        continue;
      }
      const auto& rejects = authorities[a]->rejected_votes();
      ASSERT_FALSE(rejects.empty()) << name << " authority " << a;
      for (const torproto::RejectedVote& reject : rejects) {
        EXPECT_EQ(reject.sender, kFaulty) << name << " authority " << a;
        EXPECT_EQ(reject.reason, as_text.reason) << name << " authority " << a;
      }
    }
  }
}

TEST(SecurityTest, EquivocationVariantIsADistinctBody) {
  const BodyWorkload workload;
  constexpr NodeId kFaulty = 4;
  torproto::ByzantineSpec spec;
  spec.behaviors[kFaulty] = torproto::ByzantineBehavior::kEquivocate;
  const torproto::AuthorityMaterials faulty = torproto::MakeFaultyMaterials(
      workload.Honest(kFaulty), torproto::ByzantineBehavior::kEquivocate, spec, kFaulty);
  const torcrypto::Body& honest = faulty.vote_body;
  const torcrypto::Body& variant = faulty.second_vote_body;
  ASSERT_TRUE(variant.has_value());
  EXPECT_NE(variant.shared_text().get(), honest.shared_text().get());
  EXPECT_NE(variant.digest(), honest.digest());
  EXPECT_EQ(variant.digest(), torcrypto::Digest256::Of(variant.text()));

  // The variant is canonical but not a workload vote: admission parses it
  // and keeps the received body itself rather than a copy.
  const tordir::VoteAdmission admitted =
      tordir::AdmitVote(workload.cache, variant, workload.period_start());
  ASSERT_TRUE(admitted.status.ok());
  EXPECT_EQ(admitted.body.shared_text().get(), variant.shared_text().get());
  EXPECT_EQ(admitted.body.digest(), variant.digest());

  // Odd peers observe the variant's digest, even peers the honest one.
  const torcrypto::KeyDirectory directory(42, 9);
  const torproto::DirectoryProtocol& protocol = torproto::GetProtocol("current");
  torsim::Harness harness(FastNetwork());
  const auto authorities = RunWithFaulty(harness, protocol, directory, workload, kFaulty, faulty);
  for (NodeId a = 0; a < 9; ++a) {
    if (a == kFaulty) {
      continue;
    }
    bool observed = false;
    for (const torproto::ObservedVote& vote : authorities[a]->observed_votes()) {
      if (vote.sender == kFaulty) {
        observed = true;
        EXPECT_EQ(vote.digest, a % 2 == 1 ? variant.digest() : honest.digest())
            << "authority " << a;
      }
    }
    EXPECT_TRUE(observed) << "authority " << a;
  }
}

// --- freshness / availability ------------------------------------------------

TEST(FreshnessTest, LifecycleStates) {
  tordir::ConsensusDocument consensus;
  consensus.valid_after = 1000;
  consensus.fresh_until = 1000 + 3600;
  consensus.valid_until = 1000 + 3 * 3600;
  EXPECT_EQ(tordir::EvaluateFreshness(consensus, 1500), tordir::ConsensusFreshness::kFresh);
  EXPECT_EQ(tordir::EvaluateFreshness(consensus, 1000 + 3600),
            tordir::ConsensusFreshness::kStale);
  EXPECT_EQ(tordir::EvaluateFreshness(consensus, 1000 + 3 * 3600),
            tordir::ConsensusFreshness::kInvalid);
  EXPECT_STREQ(tordir::FreshnessName(tordir::ConsensusFreshness::kStale), "stale");
}

TEST(FreshnessTest, SignatureValidationThreshold) {
  torcrypto::KeyDirectory directory(42, 9);
  tordir::ConsensusDocument consensus;
  consensus.valid_after = 1;
  const auto digest = tordir::ConsensusDigest(consensus);
  for (NodeId a = 0; a < 4; ++a) {
    consensus.signatures.push_back(directory.SignerFor(a).Sign(digest.span()));
  }
  EXPECT_FALSE(tordir::ValidateConsensusSignatures(consensus, directory, 9));  // 4 < 5
  consensus.signatures.push_back(directory.SignerFor(4).Sign(digest.span()));
  EXPECT_TRUE(tordir::ValidateConsensusSignatures(consensus, directory, 9));
  // Duplicate signers do not help.
  tordir::ConsensusDocument dup = consensus;
  dup.signatures.assign(5, consensus.signatures[0]);
  EXPECT_FALSE(tordir::ValidateConsensusSignatures(dup, directory, 9));
  // A single bad signature taints the document.
  tordir::ConsensusDocument tainted = consensus;
  tainted.signatures[2].bytes[0] ^= 1;
  EXPECT_FALSE(tordir::ValidateConsensusSignatures(tainted, directory, 9));
}

TEST(FreshnessTest, ThreeFailedRunsTakeTheNetworkDown) {
  // The paper's §2.1 arithmetic: an hourly 5-minute attack fails every run;
  // the last pre-attack consensus carries clients for 3 hours, then the
  // network is down until a run succeeds again.
  std::vector<bool> runs = {true, false, false, false, false, false, true, true};
  const auto timeline = tordir::AnalyzeAvailability(runs);
  ASSERT_TRUE(timeline.first_down_hour.has_value());
  EXPECT_EQ(*timeline.first_down_hour, 3u);  // hours 0-2 covered by run 0
  EXPECT_EQ(timeline.hours_down, 3u);        // hours 3,4,5; run at hour 6 restores
  EXPECT_TRUE(timeline.network_up[6]);
  EXPECT_TRUE(timeline.network_up[7]);
}

TEST(FreshnessTest, SingleFailureIsAbsorbedByValidityWindow) {
  std::vector<bool> runs = {true, false, true, false, false, true};
  const auto timeline = tordir::AnalyzeAvailability(runs);
  EXPECT_FALSE(timeline.first_down_hour.has_value());
  EXPECT_EQ(timeline.hours_down, 0u);
}

}  // namespace
