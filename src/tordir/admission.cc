#include "src/tordir/admission.h"

#include <utility>

#include "src/tordir/dirspec.h"

namespace tordir {

const char* VoteRejectReasonName(VoteRejectReason reason) {
  switch (reason) {
    case VoteRejectReason::kMalformed:
      return "malformed";
    case VoteRejectReason::kNonCanonical:
      return "non-canonical";
    case VoteRejectReason::kStaleWindow:
      return "stale-window";
  }
  return "unknown";
}

namespace {

// The checks both overloads share. On admission `body` is left for the
// caller to fill, except on a cache hit, which shares the canonical text.
VoteAdmission Admit(const std::shared_ptr<const VoteCache>& cache, const std::string& text,
                    const torcrypto::Digest256& digest, uint64_t period_start) {
  VoteAdmission admission;
  if (const CachedVote* cached = VoteCache::FindIn(cache, digest)) {
    admission.author = cached->document->authority;
    admission.document = cached->document;
    admission.body = torcrypto::Body(cached->text, digest);
    return admission;
  }

  auto parsed = ParseVote(text);
  if (!parsed.ok()) {
    admission.status =
        torbase::Status::InvalidArgument("malformed vote: " + parsed.status().message());
    admission.reason = VoteRejectReason::kMalformed;
    return admission;
  }
  VoteDocument document = std::move(*parsed);

  // Canonicality: the exact wire bytes must be what SerializeVote would emit
  // for this document. Comparing digests (not strings) keeps the admitted
  // digest meaningful: it is the digest of the canonical encoding.
  const std::string canonical = SerializeVote(document);
  if (torcrypto::Digest256::Of(canonical) != digest) {
    admission.status =
        torbase::Status::InvalidArgument("malformed vote: non-canonical encoding");
    admission.reason = VoteRejectReason::kNonCanonical;
    return admission;
  }

  admission.author = document.authority;
  if (document.valid_until <= period_start) {
    admission.status = torbase::Status::FailedPrecondition(
        "replayed vote: validity window [" + std::to_string(document.valid_after) + ", " +
        std::to_string(document.valid_until) + ") closed before period start " +
        std::to_string(period_start));
    admission.reason = VoteRejectReason::kStaleWindow;
    return admission;
  }

  admission.document = std::make_shared<const VoteDocument>(std::move(document));
  return admission;
}

}  // namespace

VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache, const std::string& text,
                        uint64_t period_start) {
  const torcrypto::Digest256 digest = torcrypto::Digest256::Of(text);
  VoteAdmission admission = Admit(cache, text, digest, period_start);
  if (admission.status.ok() && !admission.body.has_value()) {
    admission.body = torcrypto::Body(std::make_shared<const std::string>(text), digest);
  }
  return admission;
}

VoteAdmission AdmitVote(const std::shared_ptr<const VoteCache>& cache,
                        const torcrypto::Body& body, uint64_t period_start) {
  VoteAdmission admission = Admit(cache, body.text(), body.digest(), period_start);
  if (admission.status.ok() && !admission.body.has_value()) {
    admission.body = body;
  }
  return admission;
}

}  // namespace tordir
