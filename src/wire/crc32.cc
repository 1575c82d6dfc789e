#include "src/wire/crc32.h"

#include <array>

#include "src/wire/crc32_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GUARDIANS_CRC32_FOLDING 1
// The folding kernel is compiled for PCLMULQDQ + SSE4.1 function by
// function, so the rest of the build keeps the baseline ISA and a CPU
// without the instructions never executes one (Crc32 dispatches at run
// time).
#define GUARDIANS_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))
#endif

namespace guardians {
namespace crc32_internal {
namespace {

// Slicing-by-16 over the reflected IEEE 802.3 polynomial. kTables[0] is the
// classic bytewise table; kTables[k][b] is the register contribution of
// byte b followed by k zero bytes, so one 16-byte block folds into the CRC
// with 16 independent lookups instead of a 16-step dependency chain. The
// result is bit-identical to the bytewise definition (tests/test_wire.cc
// checks it against one). 16 KiB of tables, built at compile time.
constexpr uint32_t kPolynomial = 0xEDB88320u;
constexpr size_t kSlices = 16;

using Tables = std::array<std::array<uint32_t, 256>, kSlices>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kPolynomial ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < kSlices; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian load assembled from bytes: defined at any alignment and on
// any host byte order (compilers fold it into one load where that is legal).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The contribution of one 32-bit word of a 16-byte block: its byte i is
// followed by `first - i` more bytes of the block, so it indexes
// kTables[first - i].
inline uint32_t Fold(uint32_t word, size_t first) {
  return kTables[first][word & 0xFF] ^
         kTables[first - 1][(word >> 8) & 0xFF] ^
         kTables[first - 2][(word >> 16) & 0xFF] ^
         kTables[first - 3][word >> 24];
}

// Advances the CRC register over `size` bytes; the caller applies the
// initial and final inversion.
uint32_t SliceBy16(uint32_t crc, const uint8_t* p, size_t size) {
  for (; size >= kSlices; p += kSlices, size -= kSlices) {
    crc = Fold(LoadLe32(p) ^ crc, 15) ^ Fold(LoadLe32(p + 4), 11) ^
          Fold(LoadLe32(p + 8), 7) ^ Fold(LoadLe32(p + 12), 3);
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef GUARDIANS_CRC32_FOLDING

// Carry-less-multiply folding, after V. Gopal, E. Ozturk et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009). The message is kept as 128-bit lanes of a polynomial over GF(2);
// multiplying a lane by x^d mod P(x) moves it d bits further down the
// message, where it is xored into the lane found there. Each constant is
// that 33-bit remainder for the reflected polynomial 0xEDB88320, as the
// paper tabulates it (and Linux's crc32-pclmul and zlib-ng use it):
//   kFold512: {x^(512+32), x^(512-32)} mod P -- four lanes, 64 bytes ahead;
//   kFold128: {x^(128+32), x^(128-32)} mod P -- one lane, 16 bytes ahead;
//   kFold64:  x^64 mod P -- the last 128 bits down to 64;
//   kBarrett: {P, floor(x^64 / P)} -- the Barrett reduction to 32 bits.
// _mm_set_epi64x takes (high, low).
constexpr long long kFold512Lo = 0x0154442bd4, kFold512Hi = 0x01c6e41596;
constexpr long long kFold128Lo = 0x01751997d0, kFold128Hi = 0x00ccaa009e;
constexpr long long kFold64 = 0x0163cd6124;
constexpr long long kBarrettPoly = 0x01db710641, kBarrettMu = 0x01f7011641;

GUARDIANS_CRC32_TARGET inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// `lane` moved forward by the distance `k` encodes, xored into `next`.
GUARDIANS_CRC32_TARGET inline __m128i FoldLane(__m128i lane, __m128i k,
                                               __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i high = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(low, high), next);
}

// Advances the CRC register over `size` bytes, which is at least 64 and a
// multiple of 16.
GUARDIANS_CRC32_TARGET uint32_t FoldBlocks(uint32_t crc, const uint8_t* p,
                                           size_t size) {
  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  size -= 64;

  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = FoldLane(x0, k512, Load128(p));
    x1 = FoldLane(x1, k512, Load128(p + 16));
    x2 = FoldLane(x2, k512, Load128(p + 32));
    x3 = FoldLane(x3, k512, Load128(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  x0 = FoldLane(x0, k128, x1);
  x0 = FoldLane(x0, k128, x2);
  x0 = FoldLane(x0, k128, x3);
  for (; size >= 16; p += 16, size -= 16) {
    x0 = FoldLane(x0, k128, Load128(p));
  }

  // 128 bits to 64, then to 32 + 32.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                                          _mm_set_epi64x(0, kFold64), 0x00));

  // Barrett reduction: q = floor(low32 * mu / x^32), remainder = x0 - q * P.
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kBarrettPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#endif  // GUARDIANS_CRC32_FOLDING

}  // namespace

uint32_t PortableCrc32(const void* data, size_t size) {
  return SliceBy16(0xFFFFFFFFu, static_cast<const uint8_t*>(data), size) ^
         0xFFFFFFFFu;
}

bool FoldingSupported() {
#ifdef GUARDIANS_CRC32_FOLDING
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

uint32_t FoldingCrc32(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#ifdef GUARDIANS_CRC32_FOLDING
  if (size >= 64) {
    const size_t blocks = size & ~size_t{15};
    crc = FoldBlocks(crc, p, blocks);
    p += blocks;
    size -= blocks;
  }
#endif
  return SliceBy16(crc, p, size) ^ 0xFFFFFFFFu;
}

}  // namespace crc32_internal

uint32_t Crc32(const void* data, size_t size) {
  // Chosen once per process. Both kernels compute the same function
  // (tests/test_wire.cc runs every CRC test against each kernel the host
  // supports), so the choice never shows on the wire or in the WAL.
  static const bool folding = crc32_internal::FoldingSupported();
  return folding ? crc32_internal::FoldingCrc32(data, size)
                 : crc32_internal::PortableCrc32(data, size);
}

}  // namespace guardians
