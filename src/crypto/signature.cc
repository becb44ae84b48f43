#include "src/crypto/signature.h"

#include <cassert>

#include "src/common/serialize.h"
#include "src/crypto/hmac.h"

namespace torcrypto {
namespace {

// Derives the two 32-byte halves of a signature with distinct domain tags so
// the signature value is 64 bytes. Each half is the HMAC of the tag byte
// followed by the message.
std::array<uint8_t, 64> MacHalves(const std::array<uint8_t, 32>& secret,
                                  std::span<const uint8_t> message) {
  static constexpr uint8_t kLoTag[] = {0x01};
  static constexpr uint8_t kHiTag[] = {0x02};
  const auto lo = HmacSha256(secret, {kLoTag, message});
  const auto hi = HmacSha256(secret, {kHiTag, message});

  std::array<uint8_t, 64> out;
  std::copy(lo.begin(), lo.end(), out.begin());
  std::copy(hi.begin(), hi.end(), out.begin() + 32);
  return out;
}

}  // namespace

std::string Signature::ToHex() const { return torbase::HexEncode(bytes); }

Signature Signer::Sign(std::span<const uint8_t> message) const {
  assert(id_ != torbase::kNoNode && "Sign() on a default-constructed Signer");
  Signature sig;
  sig.signer = id_;
  sig.bytes = MacHalves(secret_, message);
  return sig;
}

Signature Signer::Sign(const std::string& message) const {
  return Sign(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                       message.size()));
}

KeyDirectory::KeyDirectory(uint64_t seed, uint32_t node_count) {
  secrets_.resize(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    torbase::Writer w;
    w.WriteU64(seed);
    w.WriteU32(i);
    w.WriteString("partialtor-key-derivation");
    const auto digest = Sha256Digest(w.buffer());
    secrets_[i] = digest;
  }
}

Signer KeyDirectory::SignerFor(torbase::NodeId id) const {
  assert(id < secrets_.size());
  return Signer(id, secrets_[id]);
}

Signature KeyDirectory::ComputeSignature(torbase::NodeId id,
                                         const std::array<uint8_t, 32>& secret,
                                         std::span<const uint8_t> message) {
  Signature sig;
  sig.signer = id;
  sig.bytes = MacHalves(secret, message);
  return sig;
}

bool KeyDirectory::Verify(std::span<const uint8_t> message, const Signature& sig) const {
  if (sig.signer >= secrets_.size()) {
    return false;
  }
  const Signature expected = ComputeSignature(sig.signer, secrets_[sig.signer], message);
  return torbase::ConstantTimeEqual(expected.bytes, sig.bytes);
}

bool KeyDirectory::Verify(const std::string& message, const Signature& sig) const {
  return Verify(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                         message.size()),
                sig);
}

}  // namespace torcrypto
