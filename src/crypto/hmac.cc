#include "src/crypto/hmac.h"

#include <cstring>

namespace torcrypto {

std::array<uint8_t, kSha256DigestSize> HmacSha256(std::span<const uint8_t> key,
                                                  std::span<const uint8_t> message) {
  return HmacSha256(key, {message});
}

std::array<uint8_t, kSha256DigestSize> HmacSha256(
    std::span<const uint8_t> key, std::initializer_list<std::span<const uint8_t>> message_parts) {
  uint8_t block_key[kSha256BlockSize];
  std::memset(block_key, 0, sizeof(block_key));
  if (key.size() > kSha256BlockSize) {
    const auto hashed = Sha256Digest(key);
    std::memcpy(block_key, hashed.data(), hashed.size());
  } else {
    std::memcpy(block_key, key.data(), key.size());
  }

  uint8_t ipad[kSha256BlockSize];
  uint8_t opad[kSha256BlockSize];
  for (size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(std::span<const uint8_t>(ipad, sizeof(ipad)));
  for (const std::span<const uint8_t> part : message_parts) {
    inner.Update(part);
  }
  const auto inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(std::span<const uint8_t>(opad, sizeof(opad)));
  outer.Update(std::span<const uint8_t>(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

}  // namespace torcrypto
