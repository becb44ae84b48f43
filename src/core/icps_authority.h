// The paper's directory protocol: Interactive Consistency under Partial
// Synchrony (§5.2), composed of three sub-protocols:
//
//   1. Dissemination — broadcast the vote document, collect peers' documents
//      (all n, or at least n - f after the timeout Δ), then broadcast a signed
//      PROPOSAL describing which digests were received.
//   2. Agreement — single-shot HotStuff over the certified digest vector
//      (H, π); the view leader assembles the vector from (n - f) proposals and
//      external validity checks the proofs.
//   3. Aggregation — fetch any documents named by the agreed vector that are
//      still missing (from their proof witnesses, one of which is correct),
//      aggregate with the standard Tor algorithm, sign, and collect a majority
//      of consensus signatures.
//
// Unlike the lock-step protocols there are no round deadlines: transfers may
// take arbitrarily long (the network may be under DDoS), and the protocol
// finishes shortly after connectivity returns — the property Figure 11
// measures.
#ifndef SRC_CORE_ICPS_AUTHORITY_H_
#define SRC_CORE_ICPS_AUTHORITY_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/consensus/hotstuff.h"
#include "src/core/digest_vector.h"
#include "src/crypto/body.h"
#include "src/protocols/authority.h"
#include "src/protocols/common.h"
#include "src/tordir/vote.h"

namespace toricc {

struct IcpsConfig {
  uint32_t authority_count = 9;
  // ICPS under partial synchrony tolerates f < n/3 (2 of 9), the trade-off
  // discussed in §5.1.
  uint32_t fault_tolerance = 2;
  // Dissemination wait Δ: after this, proceed with >= n - f documents.
  torbase::Duration dissemination_timeout = torbase::Seconds(150);
  // Pacemaker settings for the agreement sub-protocol.
  torbft::HotStuffConfig hotstuff;
  tordir::AggregationParams aggregation;

  // Tor validity rule: majority of all authorities must sign.
  uint32_t SignatureThreshold() const { return authority_count / 2 + 1; }

  // Resizes the protocol to `n` authorities with the largest fault tolerance
  // partial synchrony allows (f = floor((n-1)/3)).
  void SetAuthorityCount(uint32_t n) {
    authority_count = n;
    fault_tolerance = (n - 1) / 3;
    hotstuff.node_count = n;
    hotstuff.fault_tolerance = fault_tolerance;
  }

  IcpsConfig() {
    hotstuff.node_count = authority_count;
    hotstuff.fault_tolerance = fault_tolerance;
  }
};

// Per-authority result probes, extending the lock-step outcome with the
// ICPS-specific milestones.
struct IcpsOutcome {
  bool decided = false;           // agreement sub-protocol output
  bool valid_consensus = false;   // majority signatures collected
  uint32_t documents_held = 0;    // documents at decide time
  uint32_t vector_non_empty = 0;  // |H_o| non-⟂ entries
  tordir::ConsensusDocument consensus;

  torbase::TimePoint documents_complete_at = torbase::kTimeNever;  // all n docs
  torbase::TimePoint proposal_sent_at = torbase::kTimeNever;
  torbase::TimePoint decided_at = torbase::kTimeNever;
  torbase::TimePoint finished_at = torbase::kTimeNever;  // valid consensus
};

class IcpsAuthority : public torproto::Authority {
 public:
  // `materials` are the shared immutable inputs (torproto::AuthorityMaterials);
  // a second vote body makes odd peers receive it (with its own digest and
  // sender signature) in the dissemination broadcast (equivocation).
  IcpsAuthority(const IcpsConfig& config, const torcrypto::KeyDirectory* directory,
                torproto::AuthorityMaterials materials);

  void Start() override;
  void OnMessage(torbase::NodeId from, const torbase::Bytes& payload) override;
  torproto::PublishedConsensus published() const override { return PublishedFrom(outcome_); }
  double network_seconds() const override;
  std::optional<std::pair<uint64_t, torbase::NodeId>> agreement_view() const override;

  const IcpsOutcome& outcome() const { return outcome_; }
  bool finished() const { return outcome_.valid_consensus; }

 private:
  enum MessageType : uint8_t {
    // 1..8 reserved for the HotStuff engine.
    kDocument = 0x10,
    kProposal = 0x11,
    kDocRequest = 0x12,
    kDocResponse = 0x13,
    kConsensusSig = 0x14,
  };

  // --- dissemination -------------------------------------------------------
  void BroadcastDocument();
  void HandleDocument(torbase::NodeId from, torbase::Reader& r);
  void OnDisseminationTimeout();
  // Sends (or refreshes) our PROPOSAL once the wait rule is satisfied.
  void MaybeSendProposal();
  Proposal BuildOwnProposal() const;
  void HandleProposal(torbase::NodeId from, torbase::Reader& r);

  // --- agreement glue ------------------------------------------------------
  std::optional<torbase::Bytes> LeaderValue();
  bool ValidateValue(const torbase::Bytes& value);
  void OnDecide(const torbase::Bytes& value);

  // --- aggregation ---------------------------------------------------------
  void RequestMissingDocuments();
  void HandleDocRequest(torbase::NodeId from, torbase::Reader& r);
  void HandleDocResponse(torbase::NodeId from, torbase::Reader& r);
  void MaybeFinishAggregation();
  void HandleConsensusSig(torbase::NodeId from, torbase::Reader& r);
  void AcceptConsensusSig(const torcrypto::Signature& sig);

  // Stores a received document (first version wins; a second, different
  // version is retained as equivocation evidence).
  void StoreDocument(torbase::NodeId sender, torcrypto::Body body,
                     const torcrypto::Signature& sender_sig);

  IcpsConfig config_;

  // Documents received: sender -> (body, sender signature). First valid one
  // wins; a second, different digest from the same sender is kept as
  // equivocation evidence. Bodies share the workload's text whenever the
  // received bytes match a canonical vote.
  struct ReceivedDoc {
    torcrypto::Body body;
    torcrypto::Signature sender_sig;
  };
  std::map<torbase::NodeId, ReceivedDoc> documents_;
  std::map<torbase::NodeId, ReceivedDoc> equivocations_;  // second digests

  bool dissemination_timed_out_ = false;
  bool proposal_sent_ = false;

  // Proposals received (leader role).
  std::map<torbase::NodeId, Proposal> proposals_;

  std::optional<torbft::HotStuffNode> agreement_;
  std::optional<CertifiedVector> agreed_vector_;

  // Aggregation state.
  std::set<torbase::NodeId> pending_fetches_;
  std::map<torbase::NodeId, torcrypto::Signature> consensus_sigs_;
  // Signatures received before our own aggregation finished.
  std::vector<torcrypto::Signature> pending_consensus_sigs_;

  IcpsOutcome outcome_;
};

}  // namespace toricc

#endif  // SRC_CORE_ICPS_AUTHORITY_H_
