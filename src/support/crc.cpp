#include "support/crc.hpp"

#include <array>

#include "support/bytes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define DACM_CRC_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__linux__)
#define DACM_CRC_ARM 1
#include <arm_acle.h>
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace dacm::support {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  // tables[s][b] = crc of byte b followed by s zero bytes; XOR-ing the
  // eight per-lane lookups advances the register eight bytes at once.
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t s = 1; s < 8; ++s) {
      c = tables[0][c & 0xffu] ^ (c >> 8);
      tables[s][i] = c;
    }
  }
  return tables;
}

// constexpr: baked into .rodata at compile time, so Crc32Update pays no
// initialization guard on entry.
constexpr CrcTables kTables = BuildTables();

// Every implementation below operates on the *internal* register state
// (already inverted); Crc32Update applies the ~ conditioning at the rim.
using CrcBodyFn = std::uint32_t (*)(std::uint32_t state, const std::uint8_t* p,
                                    std::size_t n);

std::uint32_t CrcBodySliced(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  while (n >= 8) {
    // The slicing identity is over the little-endian view of the input;
    // LoadLeU32 keeps it correct on any host.
    const std::uint32_t one = crc ^ LoadLeU32(p);
    const std::uint32_t two = LoadLeU32(p + 4);
    crc = kTables[7][one & 0xffu] ^ kTables[6][(one >> 8) & 0xffu] ^
          kTables[5][(one >> 16) & 0xffu] ^ kTables[4][one >> 24] ^
          kTables[3][two & 0xffu] ^ kTables[2][(two >> 8) & 0xffu] ^
          kTables[1][(two >> 16) & 0xffu] ^ kTables[0][two >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- != 0) {
    crc = kTables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef DACM_CRC_X86

// The SSE4.2 crc32 instruction evaluates the Castagnoli polynomial, not
// IEEE 802.3, so the x86 hardware rung is PCLMULQDQ folding instead: fold
// 64 input bytes per round with carry-less multiplies, then Barrett-reduce
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ", folding constants for the reflected 0xEDB88320 polynomial).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t CrcBodyClmul(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) {
  if (n < 64) return CrcBodySliced(state, p, n);

  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x00));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x10));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x20));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 64;
  n -= 64;

  // Four independent 128-bit lanes folded forward 64 bytes per round.
  while (n >= 64) {
    __m128i lo1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    __m128i lo2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    __m128i lo3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    __m128i lo4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, lo1),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, lo2),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, lo3),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, lo4),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0x30)));
    p += 64;
    n -= 64;
  }

  // Fold the four lanes into one.
  __m128i lo = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, lo), x2);
  lo = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, lo), x3);
  lo = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, lo), x4);

  // Single-lane folds over the remaining 16-byte blocks.
  while (n >= 16) {
    lo = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, lo),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  __m128i fold = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), fold);
  fold = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
  x1 = _mm_xor_si128(x1, fold);

  // Barrett reduction 64 -> 32 bits.
  fold = _mm_and_si128(x1, mask32);
  fold = _mm_clmulepi64_si128(fold, poly_mu, 0x10);
  fold = _mm_and_si128(fold, mask32);
  fold = _mm_clmulepi64_si128(fold, poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, fold);
  state = static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));

  return n != 0 ? CrcBodySliced(state, p, n) : state;
}

bool ClmulAvailable() { return __builtin_cpu_supports("pclmul") != 0; }

#endif  // DACM_CRC_X86

#ifdef DACM_CRC_ARM

// ARMv8's optional CRC32 extension evaluates the IEEE polynomial directly
// (the CRC32C variants are the separate __crc32c* instructions).
__attribute__((target("+crc"))) std::uint32_t CrcBodyArm(std::uint32_t state,
                                                         const std::uint8_t* p,
                                                         std::size_t n) {
  while (n >= 8) {
    state = __crc32d(state, LoadLeU64(p));
    p += 8;
    n -= 8;
  }
  while (n-- != 0) {
    state = __crc32b(state, *p++);
  }
  return state;
}

bool ArmCrcAvailable() { return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0; }

#endif  // DACM_CRC_ARM

const char* ResolveBackendName() {
#ifdef DACM_CRC_X86
  if (ClmulAvailable()) return "pclmul";
#endif
#ifdef DACM_CRC_ARM
  if (ArmCrcAvailable()) return "armv8-crc";
#endif
  return "slice8";
}

CrcBodyFn ResolveBody() {
#ifdef DACM_CRC_X86
  if (ClmulAvailable()) return &CrcBodyClmul;
#endif
#ifdef DACM_CRC_ARM
  if (ArmCrcAvailable()) return &CrcBodyArm;
#endif
  return &CrcBodySliced;
}

std::uint32_t CrcBodyResolveFirst(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n);

// One-time runtime dispatch: the pointer starts at a resolver trampoline
// that detects the CPU, installs the best body, and tail-runs it.
CrcBodyFn g_crc_body = &CrcBodyResolveFirst;

std::uint32_t CrcBodyResolveFirst(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n) {
  CrcBodyFn body = ResolveBody();
  g_crc_body = body;
  return body(state, p, n);
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  return ~g_crc_body(~crc, data.data(), data.size());
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32Update(0, data);
}

const char* Crc32Backend() { return ResolveBackendName(); }

std::uint32_t Crc32UpdateSliced(std::uint32_t crc,
                                std::span<const std::uint8_t> data) {
  return ~CrcBodySliced(~crc, data.data(), data.size());
}

std::uint32_t Crc32UpdateBytewise(std::uint32_t crc,
                                  std::span<const std::uint8_t> data) {
  crc = ~crc;
  for (std::uint8_t byte : data) {
    crc = kTables[0][(crc ^ byte) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32Bytewise(std::span<const std::uint8_t> data) {
  return Crc32UpdateBytewise(0, data);
}

}  // namespace dacm::support
