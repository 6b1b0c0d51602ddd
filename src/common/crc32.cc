#include "common/crc32.h"

#include <array>

namespace hpm {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
/// built at compile time. Row 0 is the classic byte-at-a-time table;
/// row k advances a byte's contribution through k further zero bytes,
/// so one step can fold eight input bytes with eight lookups.
constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t row = 1; row < 8; ++row) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[row - 1][i];
      t[row][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

/// Little-endian load; compiles to one unaligned load on x86 and ARM.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    const uint32_t lo = LoadLe32(bytes) ^ c;
    const uint32_t hi = LoadLe32(bytes + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hpm
