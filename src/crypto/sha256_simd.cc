// Hardware SHA-256 cores and CPU-feature probes.
//
// Two cores live here, both producing state transitions byte-identical to
// ProcessBlocksScalar (cross-checked in tests/crypto_test.cc):
//
//  - ProcessBlocksShaNi: single stream via the x86 SHA extensions
//    (_mm_sha256rnds2_epu32 computes two rounds per issue) in the ABEF/CDGH
//    register layout. Both per-block loops must stay fully unrolled (the
//    `#pragma GCC unroll` lines): only then is every msgs[q & 3] index a
//    constant, so the four message-schedule quadruples live in xmm
//    registers. Left rolled, as GCC 12 leaves them at -O2, the schedule sits
//    on the stack, each sha256msg2 waits on a store-to-load forward from the
//    previous quadruple, and the core runs ~30% slower. `objdump -d` shows
//    the unroll held: 32 sha256rnds2 and no %rsp access in this function.
//  - ProcessBlocks8Avx2: eight independent streams in lock-step, transposed so
//    each __m256i holds one working variable across all eight lanes. Used by
//    Sha256Batch on CPUs that have AVX2 but not the SHA extensions.
//
// Everything is guarded by target attributes, so this file compiles without
// global -msha/-mavx2 flags and the functions are only ever called after the
// cpuid probes below say the CPU supports them.
#include "src/crypto/sha256_internal.h"

#if TORCRYPTO_HAVE_X86_SIMD

#include <immintrin.h>

#include <cpuid.h>

namespace torcrypto::internal {
namespace {

uint64_t ReadXcr0() {
  uint32_t eax, edx;
  // xgetbv with ecx=0; raw encoding so no -mxsave is needed at this call site.
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

bool DetectShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!ssse3 || !sse41) {
    return false;
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  return (ebx & (1u << 29)) != 0;  // leaf 7 EBX bit 29: SHA extensions
}

bool DetectAvx2() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) {
    return false;
  }
  if ((ReadXcr0() & 0x6) != 0x6) {
    return false;  // OS does not save xmm+ymm state
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  return (ebx & (1u << 5)) != 0;  // leaf 7 EBX bit 5: AVX2
}

}  // namespace

bool CpuHasShaNi() {
  static const bool has = DetectShaNi();
  return has;
}

bool CpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

// --- SHA-NI single-stream core ----------------------------------------------

__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlocksShaNi(uint32_t state[8],
                                                                    const uint8_t* data,
                                                                    size_t blocks) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH layout sha256rnds2 wants.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  state1 = _mm_shuffle_epi32(state1, 0x1B);
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);

  while (blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    // msgs[q & 3] holds schedule quadruple q: W[4q..4q+3], big-endian decoded.
    __m128i msgs[4];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      msgs[q] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)), kByteSwap);
    }

#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * q]));
      __m128i msg = _mm_add_epi32(msgs[q & 3], k);
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (q < 12) {
        // Extend: quadruple q+4 from the raw quadruples q..q+3.
        const __m128i w0 = msgs[q & 3];
        const __m128i w1 = msgs[(q + 1) & 3];
        const __m128i w2 = msgs[(q + 2) & 3];
        const __m128i w3 = msgs[(q + 3) & 3];
        __m128i sched = _mm_sha256msg1_epu32(w0, w1);
        sched = _mm_add_epi32(sched, _mm_alignr_epi8(w3, w2, 4));
        msgs[q & 3] = _mm_sha256msg2_epu32(sched, w3);
      }
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  // Back to [a,b,c,d] / [e,f,g,h].
  tmp = _mm_shuffle_epi32(state0, 0x1B);
  state1 = _mm_shuffle_epi32(state1, 0xB1);
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);
  state1 = _mm_alignr_epi8(state1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

// --- AVX2 8-lane multi-buffer core -------------------------------------------

namespace {

__attribute__((target("avx2"))) inline __m256i Rotr8(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

inline int32_t LoadI32(const uint8_t* p) {
  int32_t v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// Loads word t (big-endian) from all eight streams into one vector.
__attribute__((target("avx2"))) inline __m256i GatherWord(const uint8_t* const data[8],
                                                          size_t offset) {
  const __m256i raw = _mm256_set_epi32(
      LoadI32(data[7] + offset), LoadI32(data[6] + offset), LoadI32(data[5] + offset),
      LoadI32(data[4] + offset), LoadI32(data[3] + offset), LoadI32(data[2] + offset),
      LoadI32(data[1] + offset), LoadI32(data[0] + offset));
  const __m256i kByteSwap = _mm256_set_epi8(
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  return _mm256_shuffle_epi8(raw, kByteSwap);
}

}  // namespace

__attribute__((target("avx2"))) void ProcessBlocks8Avx2(uint32_t* const states[8],
                                                        const uint8_t* const data[8],
                                                        size_t blocks) {
  // v[j] holds working variable j (a..h) across the eight lanes; lane i is
  // stream i throughout, so each lane's state transition is exactly scalar's.
  __m256i v[8];
  for (int j = 0; j < 8; ++j) {
    v[j] = _mm256_set_epi32(states[7][j], states[6][j], states[5][j], states[4][j], states[3][j],
                            states[2][j], states[1][j], states[0][j]);
  }

  for (size_t blk = 0; blk < blocks; ++blk) {
    const size_t base = blk * 64;
    __m256i w[16];
    for (int t = 0; t < 16; ++t) {
      w[t] = GatherWord(data, base + 4 * static_cast<size_t>(t));
    }

    __m256i a = v[0], b = v[1], c = v[2], d = v[3];
    __m256i e = v[4], f = v[5], g = v[6], h = v[7];

    for (int t = 0; t < 64; ++t) {
      if (t >= 16) {
        const __m256i w15 = w[(t - 15) & 15];
        const __m256i w2 = w[(t - 2) & 15];
        const __m256i s0 = _mm256_xor_si256(_mm256_xor_si256(Rotr8(w15, 7), Rotr8(w15, 18)),
                                            _mm256_srli_epi32(w15, 3));
        const __m256i s1 = _mm256_xor_si256(_mm256_xor_si256(Rotr8(w2, 17), Rotr8(w2, 19)),
                                            _mm256_srli_epi32(w2, 10));
        w[t & 15] = _mm256_add_epi32(_mm256_add_epi32(w[t & 15], s0),
                                     _mm256_add_epi32(w[(t - 7) & 15], s1));
      }
      const __m256i s1 =
          _mm256_xor_si256(_mm256_xor_si256(Rotr8(e, 6), Rotr8(e, 11)), Rotr8(e, 25));
      const __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
      const __m256i temp1 = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_add_epi32(h, s1),
                           _mm256_add_epi32(ch, _mm256_set1_epi32(static_cast<int32_t>(kSha256K[t])))),
          w[t & 15]);
      const __m256i s0 =
          _mm256_xor_si256(_mm256_xor_si256(Rotr8(a, 2), Rotr8(a, 13)), Rotr8(a, 22));
      const __m256i maj = _mm256_xor_si256(
          _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)), _mm256_and_si256(b, c));
      const __m256i temp2 = _mm256_add_epi32(s0, maj);
      h = g;
      g = f;
      f = e;
      e = _mm256_add_epi32(d, temp1);
      d = c;
      c = b;
      b = a;
      a = _mm256_add_epi32(temp1, temp2);
    }

    v[0] = _mm256_add_epi32(v[0], a);
    v[1] = _mm256_add_epi32(v[1], b);
    v[2] = _mm256_add_epi32(v[2], c);
    v[3] = _mm256_add_epi32(v[3], d);
    v[4] = _mm256_add_epi32(v[4], e);
    v[5] = _mm256_add_epi32(v[5], f);
    v[6] = _mm256_add_epi32(v[6], g);
    v[7] = _mm256_add_epi32(v[7], h);
  }

  // Scatter lanes back to the eight per-stream state arrays.
  alignas(32) uint32_t lanes[8][8];  // lanes[j][i] = variable j, stream i
  for (int j = 0; j < 8; ++j) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[j]), v[j]);
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      states[i][j] = lanes[j][i];
    }
  }
}

}  // namespace torcrypto::internal

#else  // !TORCRYPTO_HAVE_X86_SIMD

namespace torcrypto::internal {

bool CpuHasShaNi() { return false; }
bool CpuHasAvx2() { return false; }

}  // namespace torcrypto::internal

#endif  // TORCRYPTO_HAVE_X86_SIMD
