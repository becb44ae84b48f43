#include "src/protocols/sync/sync_authority.h"

#include <algorithm>

namespace torproto {
namespace {

constexpr const char* kKindPropose = "SYNC_PROPOSE";
constexpr const char* kKindPacked = "SYNC_PACKED";
constexpr const char* kKindDs = "SYNC_DS";
constexpr const char* kKindSig = "SYNC_SIG";

}  // namespace

torcrypto::Digest256 PackedVoteDigest(uint32_t packer, std::span<const NodeId> authors,
                                      std::span<const torcrypto::Body> lists) {
  torbase::Writer framed;
  framed.WriteU32(packer);
  framed.WriteU32(static_cast<uint32_t>(authors.size()));
  for (size_t i = 0; i < authors.size(); ++i) {
    framed.WriteU32(authors[i]);
    framed.WriteU32(static_cast<uint32_t>(lists[i].size()));
    framed.WriteRaw(lists[i].digest().span());
  }
  return torcrypto::Digest256::Of(framed.buffer());
}

SyncAuthority::SyncAuthority(const ProtocolConfig& config,
                             const torcrypto::KeyDirectory* directory,
                             AuthorityMaterials materials)
    : Authority(directory, std::move(materials)), config_(config) {}

double SyncAuthority::network_seconds() const {
  const double round_seconds = torbase::ToSeconds(config_.round_length);
  const double list_time = torbase::ToSeconds(outcome_.all_lists_received_at);
  const double packed_time = torbase::ToSeconds(outcome_.all_packed_received_at) - round_seconds;
  const double sig_time = torbase::ToSeconds(outcome_.finished_at) - 3 * round_seconds;
  return list_time + packed_time + sig_time;
}

void SyncAuthority::Start() {
  lists_[id()] = own_vote_body_;
  const Duration r = config_.round_length;
  BeginProposePhase();
  SetTimer(r, [this] { BeginVotePhase(); });
  SetTimer(2 * r, [this] { BeginSynchronizePhase(); });
  for (uint32_t round = 1; round <= kDsRounds; ++round) {
    SetTimer(2 * r + round * (r / kDsRounds), [this, round] { DsRoundBoundary(round); });
  }
  SetTimer(3 * r, [this] { BeginSignaturePhase(); });
  SetTimer(4 * r, [this] { Finish(); });
}

void SyncAuthority::BeginProposePhase() {
  log().Notice(now(), "Propose round: sending relay list.");
  // A propose post is the type byte plus the relay list as one body.
  const torbase::Bytes header = {kProposePost};
  if (second_vote_body_.has_value()) {
    // Equivocation: odd peers get the second variant (see CurrentAuthority).
    for (NodeId peer = 0; peer < node_count(); ++peer) {
      if (peer != id()) {
        SendTo(peer, kKindPropose,
               torsim::Message(header, {peer % 2 == 1 ? second_vote_body_ : own_vote_body_}));
      }
    }
    return;
  }
  SendToAllOthers(kKindPropose, torsim::Message(header, {own_vote_body_}));
}

void SyncAuthority::HandleProposePost(NodeId from, torbase::Reader&) {
  if (bodies().size() != 1) {
    return;
  }
  if (vote_phase_started_) {
    log().Info(now(), "Relay list from " + std::to_string(from) + " arrived after the "
                      "propose round; ignored.");
    return;
  }
  if (lists_.count(from) > 0) {
    return;
  }
  // Admission shares the workload's canonical text on a digest match instead
  // of retaining a private multi-megabyte copy per peer; misses are parsed,
  // canonicality-checked and validity-window-checked before the list may
  // enter a packed vote.
  tordir::VoteAdmission admission =
      tordir::AdmitVote(vote_cache_, bodies()[0], own_vote_->valid_after);
  if (!admission.status.ok()) {
    log().Warn(now(), "Rejecting relay list from " + std::to_string(from) + ": " +
                          admission.status.ToString());
    rejected_votes_.push_back(RejectedVote{from, admission.reason, now()});
    return;
  }
  if (admission.document->authority != from) {
    log().Warn(now(), "Relay list from " + std::to_string(from) +
                          " claims another author; ignored.");
    return;
  }
  observed_votes_.push_back(
      ObservedVote{from, admission.body.digest(), now(), admission.document});
  lists_[from] = std::move(admission.body);
  if (lists_.size() == node_count() &&
      outcome_.all_lists_received_at == torbase::kTimeNever) {
    outcome_.all_lists_received_at = now();
  }
}

void SyncAuthority::BeginVotePhase() {
  vote_phase_started_ = true;
  log().Notice(now(), "Vote round: packing " + std::to_string(lists_.size()) +
                          " lists into a vote.");
  // The packed vote: every list we received, tagged by author. The packer's
  // identity is part of the document (real packed votes are signed by their
  // author), so two authorities' packed votes never collide. It travels as a
  // header {type, author, packed length, packer, count, author tags} plus
  // the lists as bodies — on the wire exactly the size of the legacy flat
  // serialization (u32 packer, u32 count, then u32 author + length-prefixed
  // list per entry) framed as one string after {type, author}.
  PackedVote packed;
  packed.packer = id();
  uint64_t packed_bytes = 8;
  for (const auto& [author, list] : lists_) {
    packed.authors.push_back(author);
    packed.lists.push_back(list);
    packed_bytes += 4 + list.wire_size();
  }
  torbase::Writer w;
  w.WriteU8(kPackedVote);
  w.WriteU32(id());
  w.WriteU32(static_cast<uint32_t>(packed_bytes));
  w.WriteU32(packed.packer);
  w.WriteU32(static_cast<uint32_t>(packed.authors.size()));
  for (NodeId author : packed.authors) {
    w.WriteU32(author);
  }
  torsim::Message message(w.TakeBuffer(), packed.lists);
  packed_votes_[id()] = std::move(packed);
  SendToAllOthers(kKindPacked, std::move(message));
}

void SyncAuthority::HandlePackedVote(NodeId from, torbase::Reader& r) {
  auto author = r.ReadU32();
  auto packed_bytes = r.ReadU32();
  auto packer = r.ReadU32();
  auto count = r.ReadU32();
  if (!author.ok() || !packed_bytes.ok() || !packer.ok() || !count.ok() || *author != from ||
      *count != bodies().size()) {
    return;
  }
  if (ds_started_) {
    log().Info(now(), "Packed vote from " + std::to_string(from) +
                          " arrived after the vote round; ignored.");
    return;
  }
  if (packed_votes_.count(from) > 0) {
    return;
  }
  PackedVote packed;
  packed.packer = *packer;
  uint64_t framed_bytes = 8;
  for (const torcrypto::Body& list : bodies()) {
    auto tag = r.ReadU32();
    if (!tag.ok()) {
      return;
    }
    packed.authors.push_back(*tag);
    packed.lists.push_back(list);
    framed_bytes += 4 + list.wire_size();
  }
  if (framed_bytes != *packed_bytes) {
    return;  // the declared length must match the lists it frames
  }
  packed_votes_[from] = std::move(packed);
  if (packed_votes_.size() == node_count() &&
      outcome_.all_packed_received_at == torbase::kTimeNever) {
    outcome_.all_packed_received_at = now();
  }
}

torcrypto::Digest256 SyncAuthority::DigestOf(const PackedVote& packed) {
  return PackedVoteDigest(packed.packer, packed.authors, packed.lists);
}

torbase::Bytes SyncAuthority::DsPayload(const torcrypto::Digest256& digest) const {
  torbase::Writer w;
  w.WriteString("sync-ds");
  w.WriteRaw(digest.span());
  return w.TakeBuffer();
}

void SyncAuthority::BeginSynchronizePhase() {
  ds_started_ = true;
  log().Notice(now(), "Synchronize rounds: Dolev-Strong over the designated sender's vote.");
  if (id() != kDesignatedSender) {
    return;
  }
  auto it = packed_votes_.find(id());
  if (it == packed_votes_.end()) {
    return;
  }
  const torcrypto::Digest256 digest = DigestOf(it->second);
  extracted_.insert(digest);
  chains_[digest] = {signer_.Sign(DsPayload(digest))};
  relayed_.insert(digest);
  torbase::Writer w;
  w.WriteU8(kDsRelay);
  w.WriteRaw(digest.span());
  w.WriteU32(1);
  w.WriteU32(chains_[digest][0].signer);
  w.WriteRaw(chains_[digest][0].bytes);
  SendToAllOthers(kKindDs, w.buffer());
}

void SyncAuthority::HandleDsRelay(NodeId, torbase::Reader& r) {
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  auto count = r.ReadU32();
  if (!digest_raw.ok() || !count.ok() || *count == 0 || *count > node_count()) {
    return;
  }
  std::array<uint8_t, torcrypto::kSha256DigestSize> digest_bytes;
  std::copy(digest_raw->begin(), digest_raw->end(), digest_bytes.begin());
  const torcrypto::Digest256 digest(digest_bytes);

  std::vector<torcrypto::Signature> chain;
  std::set<NodeId> signers;
  const torbase::Bytes payload = DsPayload(digest);
  for (uint32_t i = 0; i < *count; ++i) {
    auto signer = r.ReadU32();
    auto sig_raw = r.ReadRaw(64);
    if (!signer.ok() || !sig_raw.ok()) {
      return;
    }
    torcrypto::Signature sig;
    sig.signer = *signer;
    std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
    if (!directory_->Verify(payload, sig)) {
      return;  // broken chain
    }
    chain.push_back(sig);
    signers.insert(sig.signer);
  }
  // A valid chain must originate at the designated sender and have distinct
  // signers.
  if (signers.count(kDesignatedSender) == 0 || signers.size() != chain.size()) {
    return;
  }
  if (extracted_.count(digest) > 0) {
    return;  // already accepted
  }
  extracted_.insert(digest);
  // Extend the chain with our signature; relayed at the next round boundary.
  chain.push_back(signer_.Sign(payload));
  chains_[digest] = std::move(chain);
}

void SyncAuthority::DsRoundBoundary(uint32_t round) {
  (void)round;
  // Forward any accepted-but-not-yet-relayed values.
  for (const auto& [digest, chain] : chains_) {
    if (relayed_.count(digest) > 0) {
      continue;
    }
    relayed_.insert(digest);
    torbase::Writer w;
    w.WriteU8(kDsRelay);
    w.WriteRaw(digest.span());
    w.WriteU32(static_cast<uint32_t>(chain.size()));
    for (const auto& sig : chain) {
      w.WriteU32(sig.signer);
      w.WriteRaw(sig.bytes);
    }
    SendToAllOthers(kKindDs, w.buffer());
  }
}

void SyncAuthority::BeginSignaturePhase() {
  log().Notice(now(), "Signature round: computing consensus from the agreed vote.");
  if (extracted_.size() != 1) {
    log().Warn(now(), "Dolev-Strong produced " + std::to_string(extracted_.size()) +
                          " values; no unique agreed vote.");
    return;
  }
  // Every accepted chain carries the designated sender's signature, and it
  // signs only its own packed vote's digest: that is the vote agreed on.
  auto held = packed_votes_.find(kDesignatedSender);
  if (held == packed_votes_.end() || DigestOf(held->second) != *extracted_.begin()) {
    log().Warn(now(), "Agreed packed vote contents never arrived.");
    return;
  }
  const PackedVote* agreed = &held->second;
  outcome_.decided = true;
  outcome_.decided_at = now();

  // Unpack the agreed vote's lists and aggregate.
  if (agreed->authors.size() > node_count()) {
    return;
  }
  std::vector<RoundMemo::Vote> votes;
  for (size_t i = 0; i < agreed->authors.size(); ++i) {
    const NodeId author = agreed->authors[i];
    // Agreed lists are usually the authorities' canonical vote bytes, so the
    // workload cache spares us the ParseVote. The packed vote may still carry
    // a faulty list — the packer's *own* (everything else it packed already
    // passed its propose-time admission) — so unpacking re-admits each entry
    // and drops (and records) what fails. The author tag is sound for
    // attribution here: only the packer itself can smuggle its own bytes in
    // under its own tag.
    tordir::VoteAdmission admission =
        tordir::AdmitVote(vote_cache_, agreed->lists[i], own_vote_->valid_after);
    if (!admission.status.ok()) {
      log().Warn(now(), "Agreed vote carries a rejected list from " +
                            std::to_string(author) + ": " + admission.status.ToString());
      const NodeId culprit = admission.reason == tordir::VoteRejectReason::kStaleWindow
                                 ? admission.author
                                 : author;
      if (culprit < node_count()) {
        rejected_votes_.push_back(RejectedVote{culprit, admission.reason, now()});
      }
      continue;
    }
    if (admission.document->authority == author) {
      votes.push_back({admission.body.digest(), std::move(admission.document)});
    }
  }
  outcome_.lists_in_agreed_vote = static_cast<uint32_t>(votes.size());
  if (votes.size() < config_.MajorityThreshold()) {
    log().Warn(now(), "Agreed vote has only " + std::to_string(votes.size()) +
                          " lists; not enough to compute a consensus.");
    return;
  }
  outcome_.consensus = Aggregate(std::move(votes), config_.aggregation);
  outcome_.computed_consensus = true;

  const torcrypto::Signature sig = signer_.Sign(consensus_digest_->span());
  signatures_.emplace(id(), sig);
  torbase::Writer w;
  w.WriteU8(kSigPost);
  w.WriteRaw(consensus_digest_->span());
  w.WriteU32(sig.signer);
  w.WriteRaw(sig.bytes);
  SendToAllOthers(kKindSig, w.buffer());
}

void SyncAuthority::HandleSigPost(NodeId, torbase::Reader& r) {
  auto digest_raw = r.ReadRaw(torcrypto::kSha256DigestSize);
  auto signer = r.ReadU32();
  auto sig_raw = r.ReadRaw(64);
  if (!digest_raw.ok() || !signer.ok() || !sig_raw.ok()) {
    return;
  }
  if (!consensus_digest_.has_value() || *signer >= node_count() ||
      signatures_.count(*signer) > 0) {
    return;
  }
  torcrypto::Signature sig;
  sig.signer = *signer;
  std::copy(sig_raw->begin(), sig_raw->end(), sig.bytes.begin());
  if (!directory_->Verify(consensus_digest_->span(), sig)) {
    return;
  }
  signatures_.emplace(*signer, sig);
  if (signatures_.size() >= config_.MajorityThreshold() &&
      outcome_.finished_at == torbase::kTimeNever) {
    outcome_.finished_at = now();
  }
}

void SyncAuthority::Finish() {
  finished_ = true;
  if (outcome_.computed_consensus && signatures_.size() >= config_.MajorityThreshold()) {
    outcome_.valid_consensus = true;
    for (const auto& [signer, sig] : signatures_) {
      outcome_.consensus.signatures.push_back(sig);
    }
    log().Notice(now(), "Consensus valid with " + std::to_string(signatures_.size()) +
                            " signatures.");
  } else {
    log().Warn(now(), "No valid consensus this period.");
  }
}

void SyncAuthority::OnMessage(NodeId from, const torbase::Bytes& payload) {
  torbase::Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) {
    return;
  }
  switch (*type) {
    case kProposePost:
      HandleProposePost(from, r);
      break;
    case kPackedVote:
      HandlePackedVote(from, r);
      break;
    case kDsRelay:
      HandleDsRelay(from, r);
      break;
    case kSigPost:
      HandleSigPost(from, r);
      break;
    default:
      break;
  }
}

}  // namespace torproto
