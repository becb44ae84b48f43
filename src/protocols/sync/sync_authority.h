// Luo et al.'s synchronous directory protocol (paper §3.1, Figure 5; IEEE S&P
// 2024): the baseline fix for the equivocation attack, still assuming bounded
// synchrony.
//
//   phase 1  [0, R)       Propose — every authority broadcasts its relay list.
//   phase 2  [R, 2R)      Vote    — every authority packs ALL lists it received
//                                    into one signed packed vote and broadcasts
//                                    it (the O(n^3 d) term of Table 1).
//   phase 3  [2R, 3R)     Synchronize — Dolev-Strong style agreement on the
//                                    designated sender's packed vote: f + 1
//                                    relay rounds of signature chains.
//   phase 4  [3R, 4R)     Signatures — compute the consensus from the agreed
//                                    packed vote, sign, and exchange signatures.
//
// Like the deployed protocol it runs in lock step, so the DDoS attack of §4
// breaks it the same way; its heavier vote phase additionally makes it fail at
// much smaller relay counts under constrained bandwidth (Figure 10). As a
// research prototype it has no per-request directory deadline — transfers are
// bounded only by their phase windows.
//
// Simplifications relative to a full Dolev-Strong implementation (documented
// in EXPERIMENTS.md, "Substitutions"): the relay rounds carry only the
// packed-vote digest plus the signature chain (contents travelled in phase
// 2), and chain acceptance does not enforce the per-round signature count —
// equivocation by the designated sender is still detected and nullifies the
// run.
#ifndef SRC_PROTOCOLS_SYNC_SYNC_AUTHORITY_H_
#define SRC_PROTOCOLS_SYNC_SYNC_AUTHORITY_H_

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/crypto/body.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/protocols/authority.h"
#include "src/protocols/common.h"
#include "src/tordir/vote.h"

namespace torproto {

// The Dolev-Strong digest of a packed vote: SHA-256 over u32 packer, u32
// count, then per list u32 author, u32 byte length and the list body's
// 32-byte digest. A body's digest is SHA-256 of exactly its bytes (fixed when
// the body is made, src/crypto/body.h), so under collision resistance this
// binds the lists' contents as tightly as hashing them would, at ~40 bytes of
// hashing per list instead of the lists' megabytes.
torcrypto::Digest256 PackedVoteDigest(uint32_t packer, std::span<const NodeId> authors,
                                      std::span<const torcrypto::Body> lists);

struct SyncOutcome {
  bool decided = false;           // Dolev-Strong produced a unique packed vote
  bool computed_consensus = false;
  bool valid_consensus = false;
  uint32_t lists_in_agreed_vote = 0;
  tordir::ConsensusDocument consensus;

  torbase::TimePoint all_lists_received_at = torbase::kTimeNever;
  torbase::TimePoint all_packed_received_at = torbase::kTimeNever;
  torbase::TimePoint decided_at = torbase::kTimeNever;
  torbase::TimePoint finished_at = torbase::kTimeNever;
};

class SyncAuthority : public Authority {
 public:
  // `materials` are the shared immutable inputs (AuthorityMaterials); a
  // second vote body makes odd peers receive it in the propose round instead
  // of the own vote body (equivocation).
  SyncAuthority(const ProtocolConfig& config, const torcrypto::KeyDirectory* directory,
                AuthorityMaterials materials);

  void Start() override;
  void OnMessage(NodeId from, const torbase::Bytes& payload) override;
  PublishedConsensus published() const override { return PublishedFrom(outcome_); }
  double network_seconds() const override;

  const SyncOutcome& outcome() const { return outcome_; }
  const ProtocolConfig& config() const { return config_; }
  bool finished() const { return finished_; }

  // The designated Dolev-Strong sender.
  static constexpr NodeId kDesignatedSender = 0;
  // Number of relay rounds: f + 1 with f = majority tolerance of 4.
  static constexpr uint32_t kDsRounds = 5;

 private:
  enum MessageType : uint8_t {
    kProposePost = 1,
    kPackedVote = 2,
    kDsRelay = 3,
    kSigPost = 4,
  };

  void BeginProposePhase();
  void BeginVotePhase();
  void BeginSynchronizePhase();
  void DsRoundBoundary(uint32_t round);
  void BeginSignaturePhase();
  void Finish();

  void HandleProposePost(NodeId from, torbase::Reader& r);
  void HandlePackedVote(NodeId from, torbase::Reader& r);
  void HandleDsRelay(NodeId from, torbase::Reader& r);
  void HandleSigPost(NodeId from, torbase::Reader& r);

  // The byte string the Dolev-Strong chain signs.
  torbase::Bytes DsPayload(const torcrypto::Digest256& digest) const;

  // A packed vote as a list of author tags and the list bodies they tag —
  // pointers to the relay lists, never a copy of their bytes.
  struct PackedVote {
    uint32_t packer = 0;
    std::vector<NodeId> authors;
    std::vector<torcrypto::Body> lists;
  };
  // The packed vote's Dolev-Strong digest (PackedVoteDigest). Only the
  // designated sender's packed vote is ever digested.
  static torcrypto::Digest256 DigestOf(const PackedVote& packed);

  ProtocolConfig config_;

  // Phase 1 state: relay lists by author, shared with the workload text when
  // the received bytes match a canonical vote.
  std::map<NodeId, torcrypto::Body> lists_;
  bool vote_phase_started_ = false;

  // Phase 2 state: packed votes by author.
  std::map<NodeId, PackedVote> packed_votes_;
  bool ds_started_ = false;

  // Phase 3 state: accepted digests (extracted set) and the signature chains
  // pending relay at the next round boundary.
  std::set<torcrypto::Digest256> extracted_;
  std::map<torcrypto::Digest256, std::vector<torcrypto::Signature>> chains_;
  std::set<torcrypto::Digest256> relayed_;

  // Phase 4 state.
  std::map<NodeId, torcrypto::Signature> signatures_;
  bool finished_ = false;

  SyncOutcome outcome_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_SYNC_SYNC_AUTHORITY_H_
