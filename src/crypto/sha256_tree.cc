#include "src/crypto/sha256_tree.h"

#include <algorithm>

namespace torcrypto {

Sha256TreeHasher::Sha256TreeHasher() = default;

void Sha256TreeHasher::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  while (!data.empty()) {
    const size_t take = std::min(data.size(), kSha256TreeLeafBytes - leaf_fill_);
    leaf_.Update(data.first(take));
    leaf_fill_ += take;
    data = data.subspan(take);
    if (leaf_fill_ == kSha256TreeLeafBytes) {
      leaves_.push_back(leaf_.Finish());
      leaf_.Reset();
      leaf_fill_ = 0;
    }
  }
}

std::array<uint8_t, kSha256DigestSize> Sha256TreeHasher::Finish() {
  if (leaf_fill_ > 0) {
    leaves_.push_back(leaf_.Finish());
    leaf_.Reset();
    leaf_fill_ = 0;
  }
  // Root: H(tag || LE64(total) || leaf digests in leaf order).
  Sha256 root;
  root.Update(kSha256TreeDomainTag);
  uint8_t len_le[8];
  for (int i = 0; i < 8; ++i) {
    len_le[i] = static_cast<uint8_t>(total_bytes_ >> (8 * i));
  }
  root.Update(std::span<const uint8_t>(len_le, sizeof(len_le)));
  for (const auto& leaf : leaves_) {
    root.Update(std::span<const uint8_t>(leaf.data(), leaf.size()));
  }
  return root.Finish();
}

std::array<uint8_t, kSha256DigestSize> Sha256TreeDigest(std::span<const uint8_t> data) {
  Sha256TreeHasher hasher;
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace torcrypto
