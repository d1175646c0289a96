// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) over a byte
// range. Used to checksum on-device structures — e.g. metadata log
// records — so that torn or partial writes are detected at replay
// time instead of being replayed as garbage.
//
// Slice-by-8: eight 256-entry tables (8 KiB, built at compile time)
// fold eight bytes per step with independent lookups, where a
// byte-at-a-time table chains one dependent lookup per byte. Every
// log append checksums its 248-byte record inside the slot's lock,
// so this sits on the sync metadata path. The value is the standard
// CRC-32 ("123456789" -> 0xCBF43926) on any byte order.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace labstor {

namespace crc32_internal {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// kTables[0] is the classic byte table; kTables[k][b] is the CRC of
// byte b followed by k zero bytes.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xEDB88320u : 0u);
    }
    t[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  return v;
}

}  // namespace crc32_internal

inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const auto& t = crc32_internal::kTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = crc32_internal::LoadLe32(p) ^ crc;
    const uint32_t hi = crc32_internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  return ~crc;
}

}  // namespace labstor
