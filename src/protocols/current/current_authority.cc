#include "src/protocols/current/current_authority.h"

#include <algorithm>

namespace torproto {
namespace {

constexpr const char* kKindVote = "VOTE";
constexpr const char* kKindVoteFetch = "VOTE_FETCH";
constexpr const char* kKindSig = "SIG";
constexpr const char* kKindSigFetch = "SIG_FETCH";

}  // namespace

CurrentAuthority::CurrentAuthority(const ProtocolConfig& config,
                                   const torcrypto::KeyDirectory* directory,
                                   AuthorityMaterials materials)
    : Authority(directory, std::move(materials)), config_(config) {}

// Vote rounds' network time + signature rounds' network time: the signature
// phases start two rounds in, so subtract the idle offset.
double CurrentAuthority::network_seconds() const {
  const double round_seconds = torbase::ToSeconds(config_.round_length);
  const double vote_time = torbase::ToSeconds(outcome_.all_votes_received_at);
  const double sig_time = torbase::ToSeconds(outcome_.finished_at) - 2 * round_seconds;
  return vote_time + sig_time;
}

void CurrentAuthority::Start() {
  votes_[id()] = own_vote_;
  vote_bodies_[id()] = own_vote_body_;

  const Duration r = config_.round_length;
  BeginVoteRound();
  SetTimer(r, [this] { BeginFetchVotesRound(); });
  SetTimer(2 * r, [this] { BeginComputeRound(); });
  SetTimer(3 * r, [this] { BeginFetchSignaturesRound(); });
  SetTimer(4 * r, [this] { Finish(); });
}

void CurrentAuthority::BeginVoteRound() {
  log().Notice(now(), "Time to vote.");
  // A vote post is a header {type, posted_at} plus the vote as one body.
  torbase::Writer w;
  w.WriteU8(kVotePost);
  w.WriteU64(now());  // posted_at
  if (second_vote_body_.has_value()) {
    // Equivocation: odd peers get the second variant. Each peer still sees a
    // single self-consistent vote; only cross-observer digest comparison (the
    // health monitor) exposes the split.
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer != id()) {
        SendTo(peer, kKindVote,
               torsim::Message(w.buffer(), {peer % 2 == 1 ? second_vote_body_ : own_vote_body_}));
      }
    }
    return;
  }
  SendToAllOthers(kKindVote, torsim::Message(w.TakeBuffer(), {own_vote_body_}));
}

void CurrentAuthority::BeginFetchVotesRound() {
  fetch_round_started_ = true;
  log().Notice(now(), "Time to fetch any votes that we're missing.");
  std::vector<NodeId> missing;
  for (NodeId a = 0; a < node_count(); ++a) {
    if (votes_.count(a) == 0) {
      missing.push_back(a);
    }
  }
  if (missing.empty()) {
    return;
  }
  std::string fp_list;
  for (NodeId a : missing) {
    if (!fp_list.empty()) {
      fp_list += ' ';
    }
    // Authorities are identified by fingerprints in the real log (Figure 1);
    // render a deterministic per-authority fingerprint.
    fp_list += tordir::FingerprintHex(
        [a] {
          tordir::Fingerprint fp;
          fp.fill(static_cast<uint8_t>(0xA0 + a));
          return fp;
        }());
  }
  log().Notice(now(), "We're missing votes from " + std::to_string(missing.size()) +
                          " authorities (" + fp_list +
                          "). Asking every other authority for a copy.");

  torbase::Writer w;
  w.WriteU8(kVoteRequest);
  w.WriteU64(now());  // request time
  w.WriteU32(static_cast<uint32_t>(missing.size()));
  for (NodeId a : missing) {
    w.WriteU32(a);
    outstanding_vote_fetches_.insert(a);
  }
  SendToAllOthers(kKindVoteFetch, w.buffer());

  // Log give-ups for requests still unanswered at the directory deadline,
  // matching connection_dir_client_request_failed() in Figure 1.
  SetTimer(config_.dir_request_deadline, [this] {
    if (outstanding_vote_fetches_.empty()) {
      return;
    }
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer != id()) {
        log().Info(now(), "connection_dir_client_request_failed(): Giving up downloading votes "
                          "from " + AuthorityAddress(peer));
      }
    }
  });
}

void CurrentAuthority::BeginComputeRound() {
  compute_done_ = true;
  log().Notice(now(), "Time to compute a consensus.");
  outcome_.votes_held = static_cast<uint32_t>(votes_.size());
  const uint32_t majority = config_.MajorityThreshold();
  if (votes_.size() < majority) {
    log().Warn(now(), "We don't have enough votes to generate a consensus: " +
                          std::to_string(votes_.size()) + " of " + std::to_string(majority));
    return;
  }

  std::vector<RoundMemo::Vote> votes;
  votes.reserve(votes_.size());
  for (const auto& [authority, vote] : votes_) {
    votes.push_back({vote_bodies_.at(authority).digest(), vote});
  }
  outcome_.consensus = Aggregate(std::move(votes), config_.aggregation);
  outcome_.computed_consensus = true;
  log().Notice(now(), "Consensus computed (" + std::to_string(outcome_.consensus.relays.size()) +
                          " relays), broadcasting signature.");

  const torcrypto::Signature sig = signer_.Sign(consensus_digest_->span());
  AcceptSignature(sig);

  torbase::Writer w;
  w.WriteU8(kSigPost);
  w.WriteU64(now());
  w.WriteRaw(consensus_digest_->span());
  w.WriteU32(sig.signer);
  w.WriteRaw(sig.bytes);
  SendToAllOthers(kKindSig, w.buffer());
}

void CurrentAuthority::BeginFetchSignaturesRound() {
  log().Notice(now(), "Time to fetch any signatures that we're missing.");
  if (!outcome_.computed_consensus) {
    return;
  }
  torbase::Writer w;
  w.WriteU8(kSigRequest);
  w.WriteU64(now());
  SendToAllOthers(kKindSigFetch, w.buffer());
}

void CurrentAuthority::Finish() {
  finished_ = true;
  outcome_.signatures_held = static_cast<uint32_t>(signatures_.size());
  const uint32_t majority = config_.MajorityThreshold();
  if (outcome_.computed_consensus && signatures_.size() >= majority) {
    outcome_.valid_consensus = true;
    if (outcome_.finished_at == torbase::kTimeNever) {
      outcome_.finished_at = now();
    }
    for (const auto& [signer, sig] : signatures_) {
      outcome_.consensus.signatures.push_back(sig);
    }
    log().Notice(now(), "Consensus valid with " + std::to_string(signatures_.size()) +
                            " signatures.");
  } else {
    log().Warn(now(), "No valid consensus this period (signatures: " +
                          std::to_string(signatures_.size()) + " of " +
                          std::to_string(majority) + ").");
  }
}

void CurrentAuthority::OnMessage(NodeId from, const torbase::Bytes& payload) {
  torbase::Reader reader(payload);
  auto type = reader.ReadU8();
  if (!type.ok()) {
    return;
  }
  switch (*type) {
    case kVotePost:
      HandleVotePost(from, reader);
      break;
    case kVoteRequest:
      HandleVoteRequest(from, reader);
      break;
    case kVoteResponse:
      HandleVoteResponse(from, reader);
      break;
    case kSigPost:
      HandleSigPost(from, reader);
      break;
    case kSigRequest:
      HandleSigRequest(from, reader);
      break;
    case kSigResponse:
      HandleSigResponse(from, reader);
      break;
    default:
      log().Warn(now(), "Unknown message type from " + std::to_string(from));
  }
}

void CurrentAuthority::HandleVotePost(NodeId from, torbase::Reader& reader) {
  auto posted_at = reader.ReadU64();
  if (!posted_at.ok() || bodies().size() != 1) {
    return;
  }
  if (now() > *posted_at + config_.dir_request_deadline) {
    log().Info(now(), "Discarding stale vote transfer from " + AuthorityAddress(from));
    return;
  }
  AcceptVote(from, bodies()[0]);
}

void CurrentAuthority::HandleVoteRequest(NodeId from, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  std::vector<torcrypto::Body> served;
  for (uint32_t i = 0; i < *count; ++i) {
    auto wanted = reader.ReadU32();
    if (!wanted.ok()) {
      return;
    }
    auto it = vote_bodies_.find(*wanted);
    if (it != vote_bodies_.end()) {
      served.push_back(it->second);
    }
  }
  if (served.empty()) {
    return;
  }
  // Header {type, request_time, count}; the served votes ride as bodies.
  torbase::Writer w;
  w.WriteU8(kVoteResponse);
  w.WriteU64(*request_time);
  w.WriteU32(static_cast<uint32_t>(served.size()));
  SendTo(from, kKindVoteFetch, torsim::Message(w.TakeBuffer(), std::move(served)));
}

void CurrentAuthority::HandleVoteResponse(NodeId, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  const bool on_time = now() <= *request_time + config_.dir_request_deadline;
  const std::span<const torcrypto::Body> votes = bodies();
  for (uint32_t i = 0; i < *count; ++i) {
    if (i >= votes.size()) {
      return;
    }
    if (on_time) {
      // Relayed vote: the wire sender is an honest middleman, not the author,
      // so malformed bytes are unattributable here.
      AcceptVote(std::nullopt, votes[i]);
    }
  }
}

void CurrentAuthority::AcceptVote(std::optional<NodeId> direct_from, const torcrypto::Body& body) {
  // Admission looks the body's digest up first: a hit in the workload cache
  // proves the bytes are a canonical vote we already hold parsed, so
  // ParseVote is skipped entirely. Misses are parsed, canonicality-checked
  // and validity-window-checked. The received bytes are never copied or
  // re-hashed.
  tordir::VoteAdmission admission =
      tordir::AdmitVote(vote_cache_, body, own_vote_->valid_after);
  if (!admission.status.ok()) {
    log().Warn(now(), "Rejecting unparseable vote: " + admission.status.ToString());
    // Stale votes are canonical, so their own author line attributes them;
    // malformed bytes can only be pinned on a direct wire sender.
    const NodeId culprit = admission.reason == tordir::VoteRejectReason::kStaleWindow
                               ? admission.author
                               : direct_from.value_or(torbase::kNoNode);
    if (culprit != torbase::kNoNode) {
      rejected_votes_.push_back(RejectedVote{culprit, admission.reason, now()});
    }
    return;
  }
  const NodeId authority = admission.document->authority;
  if (authority >= node_count() || votes_.count(authority) > 0) {
    return;  // out of range or duplicate
  }
  if (authority != id()) {
    observed_votes_.push_back(
        ObservedVote{authority, admission.body.digest(), now(), admission.document});
  }
  votes_.emplace(authority, std::move(admission.document));
  vote_bodies_.emplace(authority, std::move(admission.body));
  outstanding_vote_fetches_.erase(authority);
  MaybeRecordVoteCompletion();
}

void CurrentAuthority::MaybeRecordVoteCompletion() {
  if (votes_.size() == node_count() &&
      outcome_.all_votes_received_at == torbase::kTimeNever) {
    outcome_.all_votes_received_at = now();
  }
}

void CurrentAuthority::HandleSigPost(NodeId, torbase::Reader& reader) {
  auto posted_at = reader.ReadU64();
  auto digest_raw = reader.ReadRaw(torcrypto::kSha256DigestSize);
  auto signer = reader.ReadU32();
  auto sig_raw = reader.ReadRaw(64);
  if (!posted_at.ok() || !digest_raw.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  AcceptSignature(sig);
}

void CurrentAuthority::HandleSigRequest(NodeId from, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  if (!request_time.ok() || signatures_.empty()) {
    return;
  }
  torbase::Writer w;
  w.WriteU8(kSigResponse);
  w.WriteU64(*request_time);
  w.WriteU32(static_cast<uint32_t>(signatures_.size()));
  for (const auto& [signer, sig] : signatures_) {
    w.WriteU32(sig.signer);
    w.WriteRaw(sig.bytes);
  }
  SendTo(from, kKindSigFetch, w.TakeBuffer());
}

void CurrentAuthority::HandleSigResponse(NodeId, torbase::Reader& reader) {
  auto request_time = reader.ReadU64();
  auto count = reader.ReadU32();
  if (!request_time.ok() || !count.ok()) {
    return;
  }
  if (now() > *request_time + config_.dir_request_deadline) {
    return;
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto signer = reader.ReadU32();
    auto sig_raw = reader.ReadRaw(64);
    if (!signer.ok() || !sig_raw.ok()) {
      return;
    }
    torcrypto::Signature sig;
    sig.signer = *signer;
    std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
    AcceptSignature(sig);
  }
}

void CurrentAuthority::AcceptSignature(const torcrypto::Signature& sig) {
  if (!consensus_digest_.has_value()) {
    return;  // nothing to check against (we failed to compute)
  }
  if (sig.signer >= node_count() || signatures_.count(sig.signer) > 0) {
    return;
  }
  if (!directory_->Verify(consensus_digest_->span(), sig)) {
    // Either a forgery or a signature over a *different* consensus document;
    // both are discarded, which is what makes equivocation observable.
    log().Warn(now(), "Signature from authority " + std::to_string(sig.signer) +
                          " does not match our consensus.");
    return;
  }
  signatures_.emplace(sig.signer, sig);
  if (signatures_.size() == node_count() &&
      outcome_.all_signatures_received_at == torbase::kTimeNever) {
    outcome_.all_signatures_received_at = now();
  }
  if (signatures_.size() >= config_.MajorityThreshold() &&
      outcome_.finished_at == torbase::kTimeNever) {
    outcome_.finished_at = now();
  }
}

}  // namespace torproto
