#include "util/crc32.hpp"

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SCALPARC_CRC32_FOLD 1
#include <immintrin.h>
#else
#define SCALPARC_CRC32_FOLD 0
#endif

namespace scalparc::util::detail {

#if SCALPARC_CRC32_FOLD

namespace {

bool cpu_has_pclmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") != 0;
}

__attribute__((target("pclmul"))) inline __m128i load(
    const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// a.low * k.low ^ a.high * k.high: lane `a` carried 64 (or 16) bytes on.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i a, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                       _mm_clmulepi64_si128(a, k, 0x11));
}

}  // namespace

const bool kCrc32FoldAvailable = cpu_has_pclmul();

// The folding constants of the paper for P = 0x104C11DB7, bit-reflected and
// shifted as it gives them: k1 = x^(4*128+32) mod P and k2 = x^(4*128-32)
// mod P carry a 16-byte lane 64 bytes on, k3 = x^(128+32) mod P and
// k4 = x^(128-32) mod P carry it 16 bytes on, k5 = x^64 mod P finishes the
// 128 -> 64 bit fold, and the Barrett pair (P, floor(x^64 / P)) reduces
// 64 bits to 32. `len` is at least 64 and a multiple of 16.
__attribute__((target("pclmul"))) std::uint32_t crc32_fold(
    std::uint32_t c, const unsigned char* bytes, std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x0 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(bytes + 16);
  __m128i x2 = load(bytes + 32);
  __m128i x3 = load(bytes + 48);
  bytes += 64;
  len -= 64;
  for (; len >= 64; bytes += 64, len -= 64) {
    x0 = _mm_xor_si128(fold(x0, k1k2), load(bytes));
    x1 = _mm_xor_si128(fold(x1, k1k2), load(bytes + 16));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(bytes + 32));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(bytes + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = _mm_xor_si128(fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(fold(x0, k3k4), x3);
  for (; len >= 16; bytes += 16, len -= 16) {
    x0 = _mm_xor_si128(fold(x0, k3k4), load(bytes));
  }

  // 128 -> 64 bits (which appends 32 zero bits), then 64 -> 32 by Barrett.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#else

const bool kCrc32FoldAvailable = false;

std::uint32_t crc32_fold(std::uint32_t c, const unsigned char* bytes,
                         std::size_t len) {
  return crc32_slice16(c, bytes, len);
}

#endif

}  // namespace scalparc::util::detail
