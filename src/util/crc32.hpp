// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-16.
//
// Used as the frame checksum of the message-passing runtime (corrupted
// payloads must be *detected*, not mis-parsed) and as the integrity check of
// checkpoint sections, tree and active-set files and out-of-core spill files.
// Incremental: feed chunks via the seed parameter.
//
// The kernel folds 16 bytes per step through 16 lookup tables (table k maps
// a byte to its CRC contribution k bytes before the end of the block), then
// finishes the tail of fewer than 16 bytes one byte at a time. It computes
// exactly the values of the classic byte-at-a-time loop, so every committed
// digest stays valid. Words are assembled from bytes, so the result depends
// on neither the alignment of `data` nor the host's byte order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace scalparc::util {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// Slice 0 is the byte table above; slice k advances slice k-1 by one more
// zero byte.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  tables[0] = make_crc32_table();
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Little-endian 32-bit load from any address.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

// Accumulating form: pass the previous return value as `seed` to continue a
// running checksum over multiple chunks (seed 0 starts a fresh one).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 16; bytes += 16, len -= 16) {
    const std::uint32_t w0 = detail::load_le32(bytes) ^ c;
    const std::uint32_t w1 = detail::load_le32(bytes + 4);
    const std::uint32_t w2 = detail::load_le32(bytes + 8);
    const std::uint32_t w3 = detail::load_le32(bytes + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
        t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
        t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^
        t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
        t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::span<const std::byte> data,
                           std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace scalparc::util
