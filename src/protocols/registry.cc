#include "src/protocols/directory_protocol.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/core/icps_authority.h"
#include "src/protocols/common.h"
#include "src/protocols/current/current_authority.h"
#include "src/protocols/sync/sync_authority.h"
#include "src/tordir/dirspec.h"

namespace torproto {
namespace {

// Echo a restored round_state out of an authority that assembled nothing this
// round: the snapshot seam's "a rejoining authority keeps serving what it
// fetched" half, shared by the three built-ins.
AuthorityRoundState RestoredOrEmpty(std::shared_ptr<const AuthorityRoundState> restored) {
  if (restored == nullptr) {
    return {};
  }
  AuthorityRoundState state = *restored;
  state.restored = true;
  return state;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// The deployed v3 protocol (src/protocols/current).
class CurrentProtocol : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "current"; }
  std::string_view display_name() const override { return "Current"; }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId /*id*/,
                                               AuthorityMaterials materials) const override {
    ProtocolConfig proto_config;
    proto_config.authority_count = config.authority_count;
    return std::make_unique<CurrentAuthority>(
        proto_config, directory, std::move(materials.vote), std::move(materials.vote_body),
        std::move(materials.vote_cache), std::move(materials.second_vote_body),
        std::move(materials.round_state));
  }

  AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const override {
    AuthorityRoundState state = DirectoryProtocol::SnapshotAuthority(actor);
    if (state.consensus == nullptr) {
      return RestoredOrEmpty(static_cast<const CurrentAuthority&>(actor).round_state());
    }
    return state;
  }

  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const CurrentAuthority&>(actor);
    const auto& outcome = authority.outcome();
    UnifiedOutcome unified;
    if (!outcome.valid_consensus) {
      return unified;
    }
    unified.valid_consensus = true;
    unified.consensus_relays = outcome.consensus.relays.size();
    // Vote rounds' network time + signature rounds' network time: the
    // signature phases start two rounds in, so subtract the idle offset.
    const double round_seconds = torbase::ToSeconds(authority.config().round_length);
    const double vote_time = torbase::ToSeconds(outcome.all_votes_received_at);
    const double sig_time = torbase::ToSeconds(outcome.finished_at) - 2 * round_seconds;
    unified.network_time_seconds = vote_time + sig_time;
    unified.finish_seconds = torbase::ToSeconds(outcome.finished_at);
    return unified;
  }

  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const CurrentAuthority&>(actor);
    const auto& outcome = authority.outcome();
    if (!outcome.valid_consensus) {
      return {};
    }
    return {&outcome.consensus, outcome.finished_at,
            authority.consensus_digest() ? &*authority.consensus_digest() : nullptr};
  }

  std::vector<torbase::NodeId> ProbeVoteSenders(const torsim::Actor& actor) const override {
    return static_cast<const CurrentAuthority&>(actor).vote_senders();
  }

  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    return static_cast<const CurrentAuthority&>(actor).observed_votes();
  }

  std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return static_cast<const CurrentAuthority&>(actor).rejected_votes();
  }
};

// Luo et al.'s synchronous fix (src/protocols/sync).
class SynchronousProtocol : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "synchronous"; }
  std::string_view display_name() const override { return "Synchronous"; }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId /*id*/,
                                               AuthorityMaterials materials) const override {
    ProtocolConfig proto_config;
    proto_config.authority_count = config.authority_count;
    return std::make_unique<SyncAuthority>(
        proto_config, directory, std::move(materials.vote), std::move(materials.vote_body),
        std::move(materials.vote_cache), std::move(materials.second_vote_body),
        std::move(materials.round_state));
  }

  AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const override {
    AuthorityRoundState state = DirectoryProtocol::SnapshotAuthority(actor);
    if (state.consensus == nullptr) {
      return RestoredOrEmpty(static_cast<const SyncAuthority&>(actor).round_state());
    }
    return state;
  }

  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const SyncAuthority&>(actor);
    const auto& outcome = authority.outcome();
    UnifiedOutcome unified;
    if (!outcome.valid_consensus) {
      return unified;
    }
    unified.valid_consensus = true;
    unified.consensus_relays = outcome.consensus.relays.size();
    const double round_seconds = torbase::ToSeconds(authority.config().round_length);
    const double list_time = torbase::ToSeconds(outcome.all_lists_received_at);
    const double packed_time = torbase::ToSeconds(outcome.all_packed_received_at) - round_seconds;
    const double sig_time = torbase::ToSeconds(outcome.finished_at) - 3 * round_seconds;
    unified.network_time_seconds = list_time + packed_time + sig_time;
    unified.finish_seconds = torbase::ToSeconds(outcome.finished_at);
    return unified;
  }

  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const SyncAuthority&>(actor);
    const auto& outcome = authority.outcome();
    if (!outcome.valid_consensus) {
      return {};
    }
    return {&outcome.consensus, outcome.finished_at,
            authority.consensus_digest() ? &*authority.consensus_digest() : nullptr};
  }

  std::vector<torbase::NodeId> ProbeVoteSenders(const torsim::Actor& actor) const override {
    return static_cast<const SyncAuthority&>(actor).vote_senders();
  }

  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    return static_cast<const SyncAuthority&>(actor).observed_votes();
  }

  std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return static_cast<const SyncAuthority&>(actor).rejected_votes();
  }
};

// The paper's ICPS protocol (src/core).
class IcpsProtocol : public DirectoryProtocol {
 public:
  std::string_view name() const override { return "icps"; }
  std::string_view display_name() const override { return "Ours"; }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId /*id*/,
                                               AuthorityMaterials materials) const override {
    toricc::IcpsConfig icps_config;
    icps_config.SetAuthorityCount(config.authority_count);
    icps_config.dissemination_timeout = config.dissemination_timeout;
    icps_config.hotstuff.two_phase = config.two_phase_agreement;
    return std::make_unique<toricc::IcpsAuthority>(
        icps_config, directory, std::move(materials.vote), std::move(materials.vote_body),
        std::move(materials.vote_cache), std::move(materials.second_vote_body),
        std::move(materials.round_state));
  }

  AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const override {
    AuthorityRoundState state = DirectoryProtocol::SnapshotAuthority(actor);
    if (state.consensus == nullptr) {
      return RestoredOrEmpty(static_cast<const toricc::IcpsAuthority&>(actor).round_state());
    }
    return state;
  }

  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    const auto& outcome = static_cast<const toricc::IcpsAuthority&>(actor).outcome();
    UnifiedOutcome unified;
    if (!outcome.valid_consensus) {
      return unified;
    }
    unified.valid_consensus = true;
    unified.consensus_relays = outcome.consensus.relays.size();
    // ICPS has no idle lock-step rounds: network time is start-to-finish.
    unified.network_time_seconds = torbase::ToSeconds(outcome.finished_at);
    unified.finish_seconds = torbase::ToSeconds(outcome.finished_at);
    return unified;
  }

  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const toricc::IcpsAuthority&>(actor);
    const auto& outcome = authority.outcome();
    if (!outcome.valid_consensus) {
      return {};
    }
    return {&outcome.consensus, outcome.finished_at,
            authority.consensus_digest() ? &*authority.consensus_digest() : nullptr};
  }

  std::vector<torbase::NodeId> ProbeVoteSenders(const torsim::Actor& actor) const override {
    return static_cast<const toricc::IcpsAuthority&>(actor).vote_senders();
  }

  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    return static_cast<const toricc::IcpsAuthority&>(actor).observed_votes();
  }

  std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return static_cast<const toricc::IcpsAuthority&>(actor).rejected_votes();
  }

  std::optional<std::pair<uint64_t, torbase::NodeId>> AgreementView(
      const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const toricc::IcpsAuthority&>(actor);
    const torbft::HotStuffNode* agreement = authority.agreement();
    if (agreement == nullptr || agreement->decided() || agreement->current_view() == 0) {
      return std::nullopt;
    }
    const uint64_t view = agreement->current_view();
    return std::make_pair(view, agreement->LeaderOf(view));
  }
};

using ProtocolMap = std::map<std::string, std::unique_ptr<DirectoryProtocol>, std::less<>>;

ProtocolMap& Registry() {
  static ProtocolMap* registry = [] {
    auto* map = new ProtocolMap();
    for (auto* protocol : {static_cast<DirectoryProtocol*>(new CurrentProtocol()),
                           static_cast<DirectoryProtocol*>(new SynchronousProtocol()),
                           static_cast<DirectoryProtocol*>(new IcpsProtocol())}) {
      (*map)[std::string(protocol->name())] = std::unique_ptr<DirectoryProtocol>(protocol);
    }
    return map;
  }();
  return *registry;
}

}  // namespace

AuthorityRoundState DirectoryProtocol::SnapshotAuthority(const torsim::Actor& actor) const {
  AuthorityRoundState state;
  const PublishedConsensus published = ProbeConsensus(actor);
  if (published.document != nullptr) {
    // Flat copy + canonical serialization: the actor (and its document) die
    // with the round's harness, but the snapshot must outlive both. Interned
    // relay strings keep the copy cheap.
    state.consensus = std::make_shared<const tordir::ConsensusDocument>(*published.document);
    state.consensus_text =
        std::make_shared<const std::string>(tordir::SerializeConsensus(*state.consensus));
  }
  return state;
}

AuthorityMaterials AuthorityMaterials::Own(tordir::VoteDocument vote, std::string vote_text) {
  AuthorityMaterials materials;
  materials.vote = std::make_shared<const tordir::VoteDocument>(std::move(vote));
  if (!vote_text.empty()) {
    materials.vote_body = torcrypto::Body(std::move(vote_text));
  }
  return materials;
}

void RegisterProtocol(std::unique_ptr<DirectoryProtocol> protocol) {
  ProtocolMap& registry = Registry();
  registry[std::string(protocol->name())] = std::move(protocol);
}

const DirectoryProtocol* FindProtocol(std::string_view name) {
  ProtocolMap& registry = Registry();
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : it->second.get();
}

const DirectoryProtocol& GetProtocol(std::string_view name) {
  const DirectoryProtocol* protocol = FindProtocol(name);
  if (protocol == nullptr) {
    std::fprintf(stderr, "unknown directory protocol '%.*s'; registered:",
                 static_cast<int>(name.size()), name.data());
    for (const auto& entry : Registry()) {
      std::fprintf(stderr, " %s", entry.first.c_str());
    }
    std::fprintf(stderr, "\n");
    std::abort();
  }
  return *protocol;
}

std::vector<std::string> RegisteredProtocolNames() {
  std::vector<std::string> names;
  for (const auto& entry : Registry()) {
    names.push_back(entry.first);
  }
  return names;
}

}  // namespace torproto
