// From-scratch SHA-256 (FIPS 180-4). Used for document digests, fingerprints and
// as the PRF underlying the simulated signature scheme. Verified against the
// FIPS/NIST test vectors in tests/crypto_test.cc.
//
// The compression core is dispatched at runtime: on x86-64 the SHA-NI core is
// used when the CPU has the SHA extensions, with the portable scalar core as
// the golden reference (and the only core under -DTORCRYPTO_FORCE_SCALAR=ON).
// Every core computes byte-identical digests — dispatch is invisible to
// callers and to the wire format.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>

namespace torcrypto {

constexpr size_t kSha256DigestSize = 32;
constexpr size_t kSha256BlockSize = 64;

// Which compression core is driving a hashing context. kShaNi and kAvx2x8 are
// only ever active on CPUs that support them; kScalar is always available.
enum class Sha256Backend : uint8_t {
  kScalar,  // portable reference core
  kShaNi,   // x86 SHA extensions, single stream
  kAvx2x8,  // AVX2 message-schedule interleaving, 8 lock-step streams
};

const char* Sha256BackendName(Sha256Backend backend);
bool Sha256BackendSupported(Sha256Backend backend);

// Backend the default-constructed Sha256 resolves to on this CPU.
Sha256Backend ActiveSha256Backend();
// Backend Sha256Batch uses for its lock-step lanes on this CPU.
Sha256Backend ActiveSha256BatchBackend();

// Reinterprets text as the byte span the hashing core consumes; the single
// point where the string_view and span entry points converge.
inline std::span<const uint8_t> AsByteSpan(std::string_view data) {
  return {reinterpret_cast<const uint8_t*>(data.data()), data.size()};
}

// Incremental hashing context.
class Sha256 {
 public:
  Sha256();
  // Pins the context to one core regardless of CPU features; the backend must
  // satisfy Sha256BackendSupported(). Used by tests to cross-check cores and
  // by the perf floors to measure the scalar baseline on SIMD hardware. kAvx2x8 is
  // a batch-only core and falls back to the best single-stream core here.
  explicit Sha256(Sha256Backend backend);

  void Update(std::span<const uint8_t> data);
  void Update(std::string_view data) { Update(AsByteSpan(data)); }
  // Raw-char form for streaming text producers (the dir-spec codec's digest
  // sink flushes its buffer here chunk by chunk, so document digests never
  // materialize the serialized text).
  void Update(const char* data, size_t n) { Update(std::string_view(data, n)); }

  // Finalizes and returns the digest. Reusing the context after Finish()
  // without Reset() is a contract violation: it asserts in debug builds and is
  // undefined in release builds.
  std::array<uint8_t, kSha256DigestSize> Finish();

  void Reset();

 private:
  // Bulk compression function resolved at construction (scalar or SHA-NI);
  // signature matches torcrypto::internal::ProcessBlocksFn.
  void (*process_blocks_)(uint32_t state[8], const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[kSha256BlockSize];
  size_t buffered_ = 0;
  bool finished_ = false;
};

// One-shot helpers; the string_view form forwards to the span implementation.
std::array<uint8_t, kSha256DigestSize> Sha256Digest(std::span<const uint8_t> data);
inline std::array<uint8_t, kSha256DigestSize> Sha256Digest(std::string_view data) {
  return Sha256Digest(AsByteSpan(data));
}

// One-shot digest on an explicitly pinned core (see the Sha256 backend ctor).
std::array<uint8_t, kSha256DigestSize> Sha256DigestForBackend(Sha256Backend backend,
                                                              std::span<const uint8_t> data);
inline std::array<uint8_t, kSha256DigestSize> Sha256DigestForBackend(Sha256Backend backend,
                                                                     std::string_view data) {
  return Sha256DigestForBackend(backend, AsByteSpan(data));
}

}  // namespace torcrypto

#endif  // SRC_CRYPTO_SHA256_H_
