#include "src/protocols/authority.h"

#include <utility>

#include "src/tordir/dirspec.h"

namespace torproto {

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
      round_state_(std::move(materials.round_state)) {
  if (!own_vote_body_.has_value()) {
    own_vote_body_ = torcrypto::Body(tordir::SerializeVote(*own_vote_));
  }
}

}  // namespace torproto
