// Text serialization of votes and consensus documents in the dir-spec v3 style.
//
// The wire size of these documents is what drives every bandwidth experiment in
// the paper (a vote is a few hundred bytes per relay), so the format keeps the
// realistic per-relay line structure:
//
//   r <nickname> <FP-40-hex> <digest-16-hex> <address> <orport> <dirport> <published>
//   s <flags...>
//   v <version>
//   pr <protocol versions>
//   w Bandwidth=<n> [Measured=<n>]
//   p <exit policy summary>
//   m <sha256-hex microdescriptor digest>
//
// Parsing returns Status errors for malformed input; Serialize/Parse round-trip
// exactly (tested in tests/tordir_test.cc).
#ifndef SRC_TORDIR_DIRSPEC_H_
#define SRC_TORDIR_DIRSPEC_H_

#include <string>

#include "src/common/status.h"
#include "src/crypto/digest.h"
#include "src/tordir/vote.h"

namespace tordir {

// Parser knobs. Defaults match honest steady-state behavior.
struct ParseOptions {
  // When false, every relay entry is parsed by the general fallback parser
  // (ParseRelayEntry) instead of probing the strict canonical fast path
  // first. On canonical input the two are interchangeable by construction;
  // tests/codec_fuzz_test.cc parses every fuzzed mutant both ways and asserts
  // they agree on accept/reject and produce identical documents, pinning the
  // fast-path vs fallback boundary.
  bool use_relay_fast_path = true;
};

// --- votes ----------------------------------------------------------------
std::string SerializeVote(const VoteDocument& vote);
torbase::Result<VoteDocument> ParseVote(const std::string& text);
torbase::Result<VoteDocument> ParseVote(const std::string& text, const ParseOptions& options);

// Digest of the serialized vote; this is the "h_i" the dissemination
// sub-protocol signs and agrees on.
torcrypto::Digest256 VoteDigest(const VoteDocument& vote);

// --- consensus ------------------------------------------------------------
// Serializes without the signature lines; this is the byte string authorities
// sign.
std::string SerializeConsensusUnsigned(const ConsensusDocument& consensus);
// Serializes including "directory-signature" lines.
std::string SerializeConsensus(const ConsensusDocument& consensus);
torbase::Result<ConsensusDocument> ParseConsensus(const std::string& text);
torbase::Result<ConsensusDocument> ParseConsensus(const std::string& text,
                                                  const ParseOptions& options);

// Digest of the unsigned consensus body (what signatures cover).
torcrypto::Digest256 ConsensusDigest(const ConsensusDocument& consensus);

// SerializeConsensus(consensus).size(), counted without building the text.
size_t ConsensusWireSize(const ConsensusDocument& consensus);

// --- tree digests ----------------------------------------------------------
// Tree counterparts of VoteDigest/ConsensusDigest over the same canonical
// serialized bytes, using the fixed "sha256-tree-v1" shape
// (src/crypto/sha256_tree.h). NOT interchangeable with the streaming digests
// above — tree digests are a distinct domain with their own goldens — and the
// protocol-visible digests (vote identity, signature subjects) stay on the
// streaming form. Like those, they stream without materializing the document.
torcrypto::Digest256 TreeVoteDigest(const VoteDocument& vote);
torcrypto::Digest256 TreeConsensusDigest(const ConsensusDocument& consensus);

// Tree digest of the *signed* consensus bytes (exactly what SerializeConsensus
// emits, signature lines included). This is the framing digest the consensus
// diff codec (src/tordir/consensus_diff.h) pins base and target documents
// with, so a cache can verify a patched document against the digest without
// reserializing anything. Distinct domain from TreeConsensusDigest, which
// covers only the unsigned body.
torcrypto::Digest256 TreeSignedConsensusDigest(const ConsensusDocument& consensus);

// --- canonical fragment writers ---------------------------------------------
// Append the exact bytes the serializers above would emit for one relay row
// group (r/s/[v]/[pr]/w/p/m lines; include_measured selects the vote form) or
// for a document's "directory-signature" tail. The diff codec encodes
// replacement rows with these so a patched document splices byte-identically
// into the full serialization.
void AppendRelayRowText(std::string& out, const RelayStatus& relay, bool include_measured);
void AppendSignatureLinesText(std::string& out,
                              const std::vector<torcrypto::Signature>& signatures);

// Approximate serialized vote size in bytes for `relay_count` relays, without
// building the document. Used by benches for analytic sanity checks.
size_t EstimateVoteSizeBytes(size_t relay_count);

}  // namespace tordir

#endif  // SRC_TORDIR_DIRSPEC_H_
