// Vote admission: the single accept/reject gate every protocol runs on a vote
// text it received off the wire. Admission is stricter than ParseVote:
//
//   * kMalformed    — the bytes do not parse at all.
//   * kNonCanonical — the bytes parse, but re-serializing the document does
//                     not reproduce them. Honest authorities only ever emit
//                     canonical bytes (SerializeVote/ParseVote round-trip
//                     exactly), so a non-canonical text is adversarial by
//                     construction and must not enter aggregation — two
//                     authorities holding byte-different texts of the "same"
//                     vote would otherwise disagree about its digest.
//   * kStaleWindow  — a structurally valid vote whose validity window has
//                     already closed relative to the receiver's current
//                     period: a replayed or expired document.
//
// A cache hit (digest match against the workload's canonical pre-parsed
// votes) short-circuits all three checks: byte equality against a canonical
// text proves the document is well-formed, canonical, and carries the current
// period's window.
#ifndef SRC_TORDIR_ADMISSION_H_
#define SRC_TORDIR_ADMISSION_H_

#include <memory>
#include <string>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/crypto/body.h"
#include "src/crypto/digest.h"
#include "src/tordir/vote.h"

namespace tordir {

enum class VoteRejectReason {
  kMalformed,     // unparseable or non-round-tripping bytes
  kNonCanonical,  // parses, but re-serialization differs from the wire bytes
  kStaleWindow,   // valid_until has passed: replayed/expired signature window
};

const char* VoteRejectReasonName(VoteRejectReason reason);

struct VoteAdmission {
  // Ok when admitted; otherwise a specific message for the protocol's log.
  torbase::Status status = torbase::Status::Ok();
  // Meaningful only when !status.ok().
  VoteRejectReason reason = VoteRejectReason::kMalformed;
  // The vote's claimed author when the document parsed (set for stale
  // rejects, where attribution is trustworthy because the bytes are
  // canonical); kNoNode otherwise.
  torbase::NodeId author = torbase::kNoNode;

  // Set when admitted: the parsed document and the admitted bytes. On a
  // cache hit the body shares the workload's canonical text; otherwise it is
  // the received body itself (or, for a plain string, one private copy).
  std::shared_ptr<const VoteDocument> document;
  torcrypto::Body body;
};

// Admits or rejects `text` as seen by a receiver whose current voting period
// started at `period_start` (unix seconds; receivers pass their own vote's
// valid_after). `cache` may be null.
VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache, const std::string& text,
                        uint64_t period_start);

// Same for a received message body: its digest was fixed when the body was
// made, so admission neither re-hashes nor copies the received bytes.
VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache,
                        const torcrypto::Body& body, uint64_t period_start);

}  // namespace tordir

#endif  // SRC_TORDIR_ADMISSION_H_
