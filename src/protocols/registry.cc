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

// The parts of a built-in protocol written once: every built-in actor is an
// Authority, so its published consensus, round snapshot and admission
// evidence read the same way. Subclasses supply only what really differs —
// names, construction and the network-time formula.
class BuiltinProtocol : public DirectoryProtocol {
 public:
  // The paper's §6.2 network time of `actor`, which holds a valid consensus.
  virtual double NetworkSeconds(const torsim::Actor& actor) const = 0;

  UnifiedOutcome ProbeOutcome(const torsim::Actor& actor) const override {
    const PublishedConsensus published = ProbeConsensus(actor);
    UnifiedOutcome unified;
    if (published.document == nullptr) {
      return unified;
    }
    unified.valid_consensus = true;
    unified.consensus_relays = published.document->relays.size();
    unified.network_time_seconds = NetworkSeconds(actor);
    unified.finish_seconds = torbase::ToSeconds(published.published_at);
    return unified;
  }

  PublishedConsensus ProbeConsensus(const torsim::Actor& actor) const override {
    return AsAuthority(actor).published();
  }

  // A built-in that assembled nothing this round echoes the round_state it
  // was restored with: a rejoining authority keeps serving what it fetched.
  AuthorityRoundState SnapshotAuthority(const torsim::Actor& actor) const override {
    AuthorityRoundState state = DirectoryProtocol::SnapshotAuthority(actor);
    const auto& restored = AsAuthority(actor).round_state();
    if (state.consensus == nullptr && restored != nullptr) {
      state = *restored;
      state.restored = true;
    }
    return state;
  }

  std::vector<ObservedVote> ProbeVoteObservations(const torsim::Actor& actor) const override {
    return AsAuthority(actor).observed_votes();
  }

  std::vector<RejectedVote> ProbeVoteRejects(const torsim::Actor& actor) const override {
    return AsAuthority(actor).rejected_votes();
  }

 private:
  static const Authority& AsAuthority(const torsim::Actor& actor) {
    return static_cast<const Authority&>(actor);
  }
};

ProtocolConfig LockStepConfig(const ProtocolRunConfig& config) {
  ProtocolConfig proto_config;
  proto_config.authority_count = config.authority_count;
  return proto_config;
}

// The deployed v3 protocol (src/protocols/current).
class CurrentProtocol : public BuiltinProtocol {
 public:
  std::string_view name() const override { return "current"; }
  std::string_view display_name() const override { return "Current"; }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId /*id*/,
                                               AuthorityMaterials materials) const override {
    return std::make_unique<CurrentAuthority>(LockStepConfig(config), directory,
                                              std::move(materials));
  }

  // Vote rounds' network time + signature rounds' network time: the
  // signature phases start two rounds in, so subtract the idle offset.
  double NetworkSeconds(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const CurrentAuthority&>(actor);
    const auto& outcome = authority.outcome();
    const double round_seconds = torbase::ToSeconds(authority.config().round_length);
    const double vote_time = torbase::ToSeconds(outcome.all_votes_received_at);
    const double sig_time = torbase::ToSeconds(outcome.finished_at) - 2 * round_seconds;
    return vote_time + sig_time;
  }
};

// Luo et al.'s synchronous fix (src/protocols/sync).
class SynchronousProtocol : public BuiltinProtocol {
 public:
  std::string_view name() const override { return "synchronous"; }
  std::string_view display_name() const override { return "Synchronous"; }

  std::unique_ptr<torsim::Actor> MakeAuthority(const ProtocolRunConfig& config,
                                               const torcrypto::KeyDirectory* directory,
                                               torbase::NodeId /*id*/,
                                               AuthorityMaterials materials) const override {
    return std::make_unique<SyncAuthority>(LockStepConfig(config), directory,
                                           std::move(materials));
  }

  double NetworkSeconds(const torsim::Actor& actor) const override {
    const auto& authority = static_cast<const SyncAuthority&>(actor);
    const auto& outcome = authority.outcome();
    const double round_seconds = torbase::ToSeconds(authority.config().round_length);
    const double list_time = torbase::ToSeconds(outcome.all_lists_received_at);
    const double packed_time = torbase::ToSeconds(outcome.all_packed_received_at) - round_seconds;
    const double sig_time = torbase::ToSeconds(outcome.finished_at) - 3 * round_seconds;
    return list_time + packed_time + sig_time;
  }
};

// The paper's ICPS protocol (src/core).
class IcpsProtocol : public BuiltinProtocol {
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
    return std::make_unique<toricc::IcpsAuthority>(icps_config, directory, std::move(materials));
  }

  // ICPS has no idle lock-step rounds: network time is start-to-finish.
  double NetworkSeconds(const torsim::Actor& actor) const override {
    return torbase::ToSeconds(
        static_cast<const toricc::IcpsAuthority&>(actor).outcome().finished_at);
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
