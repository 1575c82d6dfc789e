#include "src/wire/crc32.h"

#include <array>

namespace guardians {
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

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= kSlices; p += kSlices, size -= kSlices) {
    crc = Fold(LoadLe32(p) ^ crc, 15) ^ Fold(LoadLe32(p + 4), 11) ^
          Fold(LoadLe32(p + 8), 7) ^ Fold(LoadLe32(p + 12), 3);
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace guardians
