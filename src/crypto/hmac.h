// HMAC-SHA256 (RFC 2104). Underlies the simulated signature scheme; tested
// against the RFC 4231 vectors.
#ifndef SRC_CRYPTO_HMAC_H_
#define SRC_CRYPTO_HMAC_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "src/crypto/sha256.h"

namespace torcrypto {

std::array<uint8_t, kSha256DigestSize> HmacSha256(std::span<const uint8_t> key,
                                                  std::span<const uint8_t> message);

// HMAC-SHA256 of the concatenation of `message_parts`, streamed into the
// inner hash part by part, so a caller never joins them into one buffer.
std::array<uint8_t, kSha256DigestSize> HmacSha256(
    std::span<const uint8_t> key, std::initializer_list<std::span<const uint8_t>> message_parts);

}  // namespace torcrypto

#endif  // SRC_CRYPTO_HMAC_H_
