#include "src/protocols/authority.h"

#include <algorithm>
#include <utility>

#include "src/tordir/dirspec.h"

namespace torproto {

const RoundMemo::Consensus& RoundMemo::Aggregate(std::vector<Vote> votes,
                                                 const tordir::AggregationParams& params) {
  // Authority-id order, the order the protocols have always aggregated in.
  // Within a run a digest names one document, so this order is also a
  // canonical order of the key's digests.
  std::sort(votes.begin(), votes.end(), [](const Vote& a, const Vote& b) {
    return a.document->authority != b.document->authority
               ? a.document->authority < b.document->authority
               : a.digest < b.digest;
  });
  ConsensusKey key{params, {}};
  key.votes.reserve(votes.size());
  for (const Vote& vote : votes) {
    key.votes.push_back(vote.digest);
  }
  auto it = consensus_.find(key);
  if (it == consensus_.end()) {
    std::vector<const tordir::VoteDocument*> vote_ptrs;
    vote_ptrs.reserve(votes.size());
    for (const Vote& vote : votes) {
      vote_ptrs.push_back(vote.document.get());
    }
    auto document = std::make_shared<const tordir::ConsensusDocument>(
        tordir::ComputeConsensus(vote_ptrs, params));
    const torcrypto::Digest256 digest = tordir::ConsensusDigest(*document);
    it = consensus_.emplace(std::move(key), Consensus{std::move(document), digest}).first;
  }
  return it->second;
}

AuthorityMaterials AuthorityMaterials::Own(tordir::VoteDocument vote, std::string vote_text) {
  AuthorityMaterials materials;
  materials.vote = std::make_shared<const tordir::VoteDocument>(std::move(vote));
  if (!vote_text.empty()) {
    materials.vote_body = torcrypto::Body(std::move(vote_text));
  }
  return materials;
}

Authority::Authority(const torcrypto::KeyDirectory* directory, AuthorityMaterials materials)
    : directory_(directory),
      signer_(directory->SignerFor(materials.vote->authority)),
      own_vote_(std::move(materials.vote)),
      own_vote_body_(std::move(materials.vote_body)),
      vote_cache_(std::move(materials.vote_cache)),
      second_vote_body_(std::move(materials.second_vote_body)),
      memo_(materials.memo != nullptr ? std::move(materials.memo)
                                      : std::make_shared<RoundMemo>()) {
  if (!own_vote_body_.has_value()) {
    own_vote_body_ = torcrypto::Body(tordir::SerializeVote(*own_vote_));
  }
}

const tordir::ConsensusDocument& Authority::Aggregate(std::vector<RoundMemo::Vote> votes,
                                                      const tordir::AggregationParams& params) {
  const RoundMemo::Consensus& consensus = memo_->Aggregate(std::move(votes), params);
  consensus_digest_ = consensus.digest;
  return *consensus.document;
}

}  // namespace torproto
