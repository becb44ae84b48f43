// Tree-structured SHA-256 over a byte stream ("sha256-tree-v1").
//
// Shape (fixed, part of the digest definition):
//   - the input is split into consecutive 64 KiB leaves; the final leaf holds
//     whatever remains (possibly empty input -> zero leaves),
//   - leaf digest i = SHA-256 of leaf i's bytes,
//   - root = SHA-256("sha256-tree-v1" || LE64(total_bytes) || leaf digests
//     concatenated in leaf order).
//
// Each leaf is a pure function of a fixed input span, so the root depends only
// on the bytes, never on how a producer chunks them. The length tag makes the
// root domain-separated from plain SHA-256 and from any tree over a
// different-length input.
#ifndef SRC_CRYPTO_SHA256_TREE_H_
#define SRC_CRYPTO_SHA256_TREE_H_

#include <array>
#include <span>
#include <string_view>
#include <vector>

#include "src/crypto/sha256.h"

namespace torcrypto {

constexpr size_t kSha256TreeLeafBytes = 64 * 1024;
constexpr std::string_view kSha256TreeDomainTag = "sha256-tree-v1";

// Incremental form for streaming producers (the dir-spec digest sinks): leaves
// are hashed as bytes arrive, so the serialized document is never
// materialized. Any chunking of the same bytes gives the same root.
class Sha256TreeHasher {
 public:
  Sha256TreeHasher();

  void Update(std::span<const uint8_t> data);
  void Update(std::string_view data) { Update(AsByteSpan(data)); }
  void Update(const char* data, size_t n) { Update(std::string_view(data, n)); }

  std::array<uint8_t, kSha256DigestSize> Finish();

 private:
  Sha256 leaf_;
  size_t leaf_fill_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<std::array<uint8_t, kSha256DigestSize>> leaves_;
};

// One-shot tree digest of bytes already in memory: one Sha256TreeHasher pass.
std::array<uint8_t, kSha256DigestSize> Sha256TreeDigest(std::span<const uint8_t> data);
inline std::array<uint8_t, kSha256DigestSize> Sha256TreeDigest(std::string_view data) {
  return Sha256TreeDigest(AsByteSpan(data));
}

}  // namespace torcrypto

#endif  // SRC_CRYPTO_SHA256_TREE_H_
