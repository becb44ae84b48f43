// Body: an immutable, shared byte string named by its SHA-256. Messages carry
// multi-megabyte documents (votes, packed votes, fetched documents) as bodies
// instead of copying them into each wire buffer: a broadcast shares one body
// across every receiver, and a receiver admits it by digest without hashing
// the bytes again. The digest is fixed when the body is made — either hashed
// then, or adopted from a caller that already hashed exactly these bytes (the
// workload's VoteCache digests) — and nothing reachable through a body is
// ever mutated, so bodies may be shared across sweep cells and threads.
#ifndef SRC_CRYPTO_BODY_H_
#define SRC_CRYPTO_BODY_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/crypto/digest.h"

namespace torcrypto {

class Body {
 public:
  // A null body: no text, used for "not provided" slots.
  Body() = default;

  // Takes ownership of `text` and hashes it once.
  explicit Body(std::string text)
      : Body(std::make_shared<const std::string>(std::move(text))) {}

  // Shares `text` (non-null) and hashes it once.
  explicit Body(std::shared_ptr<const std::string> text)
      : text_(std::move(text)), digest_(Digest256::Of(*text_)) {}

  // Shares `text` (non-null) under a digest the caller already computed over
  // exactly these bytes, so building the body costs no hashing.
  Body(std::shared_ptr<const std::string> text, const Digest256& digest)
      : text_(std::move(text)), digest_(digest) {
    assert(Digest256::Of(*text_) == digest_ && "adopted digest must name these bytes");
  }

  bool has_value() const { return text_ != nullptr; }
  const std::string& text() const { return *text_; }
  const std::shared_ptr<const std::string>& shared_text() const { return text_; }
  const Digest256& digest() const { return digest_; }
  size_t size() const { return text_->size(); }

  // Bytes the body occupies on the wire: a u32 length prefix plus the text,
  // exactly what Writer::WriteString would have framed inline.
  uint64_t wire_size() const { return 4 + static_cast<uint64_t>(size()); }

 private:
  std::shared_ptr<const std::string> text_;
  Digest256 digest_;
};

}  // namespace torcrypto

#endif  // SRC_CRYPTO_BODY_H_
