// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used as the frame checksum of the message-passing runtime (corrupted
// payloads must be *detected*, not mis-parsed) and as the integrity check of
// checkpoint sections, tree and active-set files. Incremental: feed chunks
// via the seed parameter.
//
// Two kernels, both computing exactly the values of the classic
// byte-at-a-time loop, so every committed digest stays valid:
//   * on x86-64 CPUs with PCLMULQDQ (detected at run time), the whole 16-byte
//     blocks of a buffer of 64 bytes or more are folded by carry-less
//     multiplication, four 16-byte lanes per 64-byte step, then reduced to
//     32 bits (util/crc32.cpp; Gopal et al., "Fast CRC Computation for
//     Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009);
//   * slicing-by-16 folds 16 bytes per step through 16 lookup tables (table
//     k maps a byte to its CRC contribution k bytes before the end of the
//     block) and finishes a tail of fewer than 16 bytes one byte at a time.
//     It runs the tails of the first kernel and whole buffers everywhere
//     else.
// Both read bytes at any address, so the result depends on neither the
// alignment of `data` nor the host's byte order.
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

// Slicing-by-16 over `len` bytes, continuing the raw (pre-inverted) CRC
// register `c`.
inline std::uint32_t crc32_slice16(std::uint32_t c, const unsigned char* bytes,
                                   std::size_t len) {
  const auto& t = kCrc32Tables;
  for (; len >= 16; bytes += 16, len -= 16) {
    const std::uint32_t w0 = load_le32(bytes) ^ c;
    const std::uint32_t w1 = load_le32(bytes + 4);
    const std::uint32_t w2 = load_le32(bytes + 8);
    const std::uint32_t w3 = load_le32(bytes + 12);
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
  return c;
}

// The carry-less-multiply kernel: true when this CPU runs it (set once at
// start-up; false before then and on other CPUs).
extern const bool kCrc32FoldAvailable;
inline constexpr std::size_t kCrc32FoldMin = 64;
// Folds `len` bytes (at least kCrc32FoldMin, a multiple of 16) into the raw
// register `c`. Only call it when kCrc32FoldAvailable is true.
std::uint32_t crc32_fold(std::uint32_t c, const unsigned char* bytes,
                         std::size_t len);

}  // namespace detail

// Accumulating form: pass the previous return value as `seed` to continue a
// running checksum over multiple chunks (seed 0 starts a fresh one).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (len >= detail::kCrc32FoldMin && detail::kCrc32FoldAvailable) {
    const std::size_t blocks = len & ~std::size_t{15};
    c = detail::crc32_fold(c, bytes, blocks);
    bytes += blocks;
    len -= blocks;
  }
  return detail::crc32_slice16(c, bytes, len) ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::span<const std::byte> data,
                           std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace scalparc::util
