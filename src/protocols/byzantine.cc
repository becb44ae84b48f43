#include "src/protocols/byzantine.h"

#include <limits>
#include <string>
#include <utility>

#include "src/common/serialize.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/wire_mutator.h"

namespace torproto {
namespace {

// Saturating bandwidth scaling; inflated weights must not wrap back down.
uint64_t Inflate(uint64_t value, double multiplier) {
  const double scaled = static_cast<double>(value) * multiplier;
  if (scaled >= static_cast<double>(std::numeric_limits<uint64_t>::max())) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(scaled);
}

std::string HonestText(const AuthorityMaterials& honest) {
  if (honest.vote_body.has_value()) {
    return honest.vote_body.text();
  }
  return tordir::SerializeVote(*honest.vote);
}

// Faulty texts are not workload votes, so their bodies hash here, once per
// authority build — receivers then admit them without hashing again.
AuthorityMaterials WithDocument(const AuthorityMaterials& honest, tordir::VoteDocument document) {
  AuthorityMaterials faulty;
  faulty.vote_body = torcrypto::Body(tordir::SerializeVote(document));
  faulty.vote = std::make_shared<const tordir::VoteDocument>(std::move(document));
  faulty.vote_cache = honest.vote_cache;
  faulty.memo = honest.memo;
  return faulty;
}

}  // namespace

const char* ByzantineBehaviorName(ByzantineBehavior behavior) {
  switch (behavior) {
    case ByzantineBehavior::kEquivocate:
      return "equivocate";
    case ByzantineBehavior::kReplay:
      return "replay";
    case ByzantineBehavior::kMalformedWire:
      return "malformed-wire";
    case ByzantineBehavior::kInflateBandwidth:
      return "inflate-bandwidth";
  }
  return "?";
}

void ByzantineSpec::Describe(torbase::Writer& writer) const {
  writer.WriteU32(static_cast<uint32_t>(behaviors.size()));
  for (const auto& [node, behavior] : behaviors) {
    writer.WriteU32(node);
    writer.WriteU8(static_cast<uint8_t>(behavior));
  }
  writer.WriteU64(mutation_seed);
  writer.WriteF64(bandwidth_multiplier);
}

AuthorityMaterials MakeFaultyMaterials(const AuthorityMaterials& honest,
                                       ByzantineBehavior behavior, const ByzantineSpec& spec,
                                       torbase::NodeId id) {
  switch (behavior) {
    case ByzantineBehavior::kEquivocate: {
      // Variant B nudges fresh_until by one second: a second canonical,
      // admissible document with a distinct digest. Aggregation windows are
      // medians over all votes, so one shifted vote leaves the consensus
      // byte-identical — the attack is only visible as a per-peer digest
      // mismatch, which is exactly what the health monitor cross-checks.
      tordir::VoteDocument variant = *honest.vote;
      variant.fresh_until += 1;
      AuthorityMaterials faulty = honest;
      faulty.second_vote_body = torcrypto::Body(tordir::SerializeVote(variant));
      return faulty;
    }
    case ByzantineBehavior::kReplay: {
      // Shift the whole validity window back one full period: the document is
      // canonical and correctly signed-over, but its valid_until equals the
      // receivers' period start — a replayed vote from the previous period.
      tordir::VoteDocument stale = *honest.vote;
      const uint64_t period = stale.valid_until - stale.valid_after;
      stale.valid_after -= period;
      stale.fresh_until -= period;
      stale.valid_until -= period;
      return WithDocument(honest, std::move(stale));
    }
    case ByzantineBehavior::kMalformedWire: {
      // Structurally mutated canonical bytes (never admissible), seeded per
      // authority so concurrent malformed authorities diverge.
      AuthorityMaterials faulty = honest;
      const uint64_t seed = spec.mutation_seed ^ ((id + 1) * 0x9e3779b97f4a7c15ULL);
      faulty.vote_body =
          torcrypto::Body(tordir::MutateWireStructural(HonestText(honest), seed));
      return faulty;
    }
    case ByzantineBehavior::kInflateBandwidth: {
      tordir::VoteDocument inflated = *honest.vote;
      for (tordir::RelayStatus& relay : inflated.relays) {
        relay.bandwidth = Inflate(relay.bandwidth, spec.bandwidth_multiplier);
        if (relay.measured.has_value()) {
          relay.measured = Inflate(*relay.measured, spec.bandwidth_multiplier);
        }
      }
      return WithDocument(honest, std::move(inflated));
    }
  }
  return honest;
}

}  // namespace torproto
