// The deployed Tor directory protocol, version 3 (paper §3.1, Figure 4): four
// lock-step rounds of 150 s each, run once per hour.
//
//   round 1  [0, R)    Perform Vote    — post the vote to every authority
//   round 2  [R, 2R)   Fetch Votes     — ask every peer for missing votes
//   round 3  [2R, 3R)  Send Signature  — aggregate, sign, post the signature
//   round 4  [3R, 4R)  Fetch Signatures— ask every peer for missing signatures
//
// A consensus can be computed only with votes from a majority of authorities
// (5 of 9), and is valid only once a majority of authorities signed the same
// document. Individual directory transfers are abandoned when they exceed the
// configured per-request deadline, which is exactly how the DDoS attack of §4
// breaks the protocol: victims' bandwidth no longer moves a vote inside the
// deadline, fetch retries fail the same way, and consensus computation comes up
// short ("We don't have enough votes to generate a consensus: 4 of 5").
#ifndef SRC_PROTOCOLS_CURRENT_CURRENT_AUTHORITY_H_
#define SRC_PROTOCOLS_CURRENT_CURRENT_AUTHORITY_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/common/serialize.h"
#include "src/crypto/body.h"
#include "src/crypto/signature.h"
#include "src/protocols/authority.h"
#include "src/protocols/common.h"
#include "src/tordir/vote.h"

namespace torproto {

class CurrentAuthority : public Authority {
 public:
  // `materials` are the shared immutable inputs (AuthorityMaterials); a
  // second vote body makes odd peers receive it in the vote round instead of
  // the own vote body (equivocation).
  CurrentAuthority(const ProtocolConfig& config, const torcrypto::KeyDirectory* directory,
                   AuthorityMaterials materials);

  void Start() override;
  void OnMessage(NodeId from, const torbase::Bytes& payload) override;
  PublishedConsensus published() const override { return PublishedFrom(outcome_); }
  double network_seconds() const override;

  const AuthorityOutcome& outcome() const { return outcome_; }
  const ProtocolConfig& config() const { return config_; }
  bool finished() const { return finished_; }

 private:
  enum MessageType : uint8_t {
    kVotePost = 1,
    kVoteRequest = 2,
    kVoteResponse = 3,
    kSigPost = 4,
    kSigRequest = 5,
    kSigResponse = 6,
  };

  void BeginVoteRound();
  void BeginFetchVotesRound();
  void BeginComputeRound();
  void BeginFetchSignaturesRound();
  void Finish();

  void HandleVotePost(NodeId from, torbase::Reader& reader);
  void HandleVoteRequest(NodeId from, torbase::Reader& reader);
  void HandleVoteResponse(NodeId from, torbase::Reader& reader);
  void HandleSigPost(NodeId from, torbase::Reader& reader);
  void HandleSigRequest(NodeId from, torbase::Reader& reader);
  void HandleSigResponse(NodeId from, torbase::Reader& reader);

  // Runs a received vote body through admission (src/tordir/admission.h) and
  // stores it if admitted, new and in range. `direct_from` is the wire sender
  // when the body arrived as a direct post (malformed bytes are attributed to
  // it); nullopt for relayed fetch responses.
  void AcceptVote(std::optional<NodeId> direct_from, const torcrypto::Body& body);
  void AcceptSignature(const torcrypto::Signature& sig);
  void MaybeRecordVoteCompletion();

  ProtocolConfig config_;

  // Votes received (and their bodies, re-served to fetches as they arrived).
  // The documents are shared with the workload cache whenever the received
  // bytes match a canonical vote, so holding "a copy" of every vote costs
  // pointers, not megabytes.
  std::map<NodeId, std::shared_ptr<const tordir::VoteDocument>> votes_;
  std::map<NodeId, torcrypto::Body> vote_bodies_;

  // Signatures over our computed consensus digest.
  std::map<NodeId, torcrypto::Signature> signatures_;

  // Fetch bookkeeping: ids we asked for and when, to log give-ups.
  std::set<NodeId> outstanding_vote_fetches_;
  bool fetch_round_started_ = false;
  bool compute_done_ = false;
  bool finished_ = false;

  AuthorityOutcome outcome_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_CURRENT_CURRENT_AUTHORITY_H_
