// The authority core shared by every directory protocol. The deployed v3
// protocol, Luo et al.'s synchronous fix and ICPS all start from the same
// inputs (the authority's vote, its signing key, the workload's pre-parsed
// votes) and yield the same evidence (admitted and rejected votes, the
// consensus digest, the published consensus, the paper's network time).
// Authority owns both; each protocol subclass adds only its message exchange,
// and the scenario runner reads every metric straight off this interface.
#ifndef SRC_PROTOCOLS_AUTHORITY_H_
#define SRC_PROTOCOLS_AUTHORITY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/body.h"
#include "src/crypto/digest.h"
#include "src/crypto/signature.h"
#include "src/protocols/common.h"
#include "src/sim/actor.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/vote.h"

namespace torproto {

// The round's content-keyed memo of the work every authority would otherwise
// repeat on byte-identical inputs: the consensus of an admitted vote set. Keys
// name votes by body digests, which are fixed when a body is made; byzantine
// mutants and equivocation variants are distinct bodies, so equal keys mean
// byte-identical inputs and a hit returns exactly what the caller would have
// computed. The memo sits strictly after admission: authorities still admit
// every vote, sign their own digest and verify every peer signature.
//
// One memo serves the authorities of one simulated run (one sweep cell) and
// is freed with it. The simulation of a cell runs on one thread, so the memo
// is unsynchronized; it never crosses cells. Each authority aggregates at most
// once per run, so the memo holds at most one entry per authority.
class RoundMemo {
 public:
  // One admitted vote: the document and the digest of the body it was
  // admitted from.
  struct Vote {
    torcrypto::Digest256 digest;
    std::shared_ptr<const tordir::VoteDocument> document;
  };
  struct Consensus {
    std::shared_ptr<const tordir::ConsensusDocument> document;
    torcrypto::Digest256 digest;  // ConsensusDigest of the unsigned body
  };

  // ComputeConsensus + ConsensusDigest over `votes` (any order; aggregated in
  // authority-id order), computed once per distinct (params, vote set).
  const Consensus& Aggregate(std::vector<Vote> votes, const tordir::AggregationParams& params);

  size_t consensus_entries() const { return consensus_.size(); }

 private:
  struct ConsensusKey {
    tordir::AggregationParams params;
    std::vector<torcrypto::Digest256> votes;  // in aggregation order
    auto operator<=>(const ConsensusKey&) const = default;
  };

  std::map<ConsensusKey, Consensus> consensus_;
};

// The immutable inputs an authority actor shares with its workload instead of
// copying: its own vote document and serialized bytes (as a message body, so
// the digest the workload already computed travels with them), plus the
// workload's digest-keyed cache of every authority's pre-parsed vote. All are
// read-only after construction, which is what lets sweep cells on different
// threads share them (see the threading contract in ROADMAP.md). `vote_body`
// may be null (serialize and hash on demand); `vote_cache` may be null (parse
// received votes from scratch, the pre-cache behaviour).
struct AuthorityMaterials {
  std::shared_ptr<const tordir::VoteDocument> vote;
  torcrypto::Body vote_body;
  std::shared_ptr<const tordir::VoteCache> vote_cache;
  // When set, the authority *equivocates*: odd-numbered peers receive this
  // body in the initial vote broadcast instead of `vote_body`. Null for
  // honest authorities; populated only by MakeFaultyMaterials
  // (src/protocols/byzantine.h).
  torcrypto::Body second_vote_body;
  // The run's round memo, shared by all of its authorities. The scenario
  // runner makes one per run; an authority built without one (tests,
  // examples) makes a private memo.
  std::shared_ptr<RoundMemo> memo;

  // Materials for tests and drivers that own a plain document.
  static AuthorityMaterials Own(tordir::VoteDocument vote, std::string vote_text = {});
};

// What an authority ended the run publishing: the consensus document (null
// until a *valid* consensus — majority signatures — was assembled) and the
// absolute virtual time it became available for directory caches to mirror.
// This is the hand-off point between the production plane (authorities) and
// the consumption plane (src/clients): the scenario runner reads it to turn
// protocol outcomes into client-visible availability.
struct PublishedConsensus {
  const tordir::ConsensusDocument* document = nullptr;
  torbase::TimePoint published_at = torbase::kTimeNever;
  // Digest of the document's unsigned body, when the authority computed one
  // during the run (all built-ins do) — lets the health monitor record
  // consensus digests without re-serializing multi-megabyte documents.
  const torcrypto::Digest256* digest = nullptr;
};

class Authority : public torsim::Actor {
 public:
  // The consensus this authority publishes; {nullptr, kTimeNever} until it
  // holds a valid one. The pointers stay valid as long as the actor does.
  virtual PublishedConsensus published() const = 0;

  // The paper's §6.2 "network time" in seconds: for the lock-step protocols,
  // the sum of per-round processing times excluding the idle remainder of
  // each round; for ICPS, simply start-to-finish. Meaningful only once
  // published() holds a valid consensus.
  virtual double network_seconds() const = 0;

  // The (view, leader) of this authority's in-flight agreement sub-protocol,
  // if the protocol has a leader notion and the agreement is still undecided.
  // Adaptive leader-chasing attacks key off this.
  virtual std::optional<std::pair<uint64_t, NodeId>> agreement_view() const {
    return std::nullopt;
  }

  // Admission evidence for the consensus-health monitor, in arrival order:
  // peers' votes this authority admitted (own vote excluded) and texts it
  // refused.
  const std::vector<ObservedVote>& observed_votes() const { return observed_votes_; }
  const std::vector<RejectedVote>& rejected_votes() const { return rejected_votes_; }

 protected:
  // `directory` must outlive the actor; the authority signs with the key for
  // its vote's author. A null `materials.vote_body` is serialized and hashed
  // here, once.
  Authority(const torcrypto::KeyDirectory* directory, AuthorityMaterials materials);

  // published() for an outcome carrying {valid_consensus, consensus,
  // finished_at}, as all three built-in outcomes do.
  template <typename Outcome>
  PublishedConsensus PublishedFrom(const Outcome& outcome) const {
    if (!outcome.valid_consensus) {
      return {};
    }
    return {&outcome.consensus, outcome.finished_at,
            consensus_digest_.has_value() ? &*consensus_digest_ : nullptr};
  }

  // Aggregates the admitted `votes` through the round memo and records the
  // consensus digest in consensus_digest_. The returned document is the
  // memo's shared, unsigned consensus.
  const tordir::ConsensusDocument& Aggregate(std::vector<RoundMemo::Vote> votes,
                                             const tordir::AggregationParams& params);

  const torcrypto::KeyDirectory* directory_;
  torcrypto::Signer signer_;
  std::shared_ptr<const tordir::VoteDocument> own_vote_;
  torcrypto::Body own_vote_body_;
  std::shared_ptr<const tordir::VoteCache> vote_cache_;
  torcrypto::Body second_vote_body_;
  std::shared_ptr<RoundMemo> memo_;

  std::vector<ObservedVote> observed_votes_;
  std::vector<RejectedVote> rejected_votes_;

  // Digest of the unsigned consensus body, once computed this run.
  std::optional<torcrypto::Digest256> consensus_digest_;
};

}  // namespace torproto

#endif  // SRC_PROTOCOLS_AUTHORITY_H_
