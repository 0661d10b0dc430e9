// Wire packing for SoA continuous columns.
//
// The Presort exchanges (sample sort's all-to-all and the rebalance shift)
// move column slices between ranks. Rather than widening each record back
// into a padded 24-byte AoS entry for the wire, a slice travels as one
// packed byte segment [values | rids | cls] — 20 bytes per record, the same
// density the in-memory layout has. The record count is implied by the byte
// count, which unpack() validates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "data/attribute_list.hpp"

namespace scalparc::sort {

// Packs records [begin, end) of `cols` into one byte buffer.
inline std::vector<std::byte> pack_columns(const data::ContinuousColumns& cols,
                                           std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  std::vector<std::byte> out(n * data::ContinuousColumns::bytes_per_record);
  if (n == 0) return out;  // empty vectors may hold null pointers
  std::byte* cursor = out.data();
  std::memcpy(cursor, cols.values.data() + begin, n * sizeof(double));
  cursor += n * sizeof(double);
  std::memcpy(cursor, cols.rids.data() + begin, n * sizeof(std::int64_t));
  cursor += n * sizeof(std::int64_t);
  std::memcpy(cursor, cols.cls.data() + begin, n * sizeof(std::int32_t));
  return out;
}

// Appends the records packed in `bytes` to `cols`; returns how many arrived.
inline std::size_t unpack_columns(const std::vector<std::byte>& bytes,
                                  data::ContinuousColumns& cols) {
  if (bytes.size() % data::ContinuousColumns::bytes_per_record != 0) {
    throw std::logic_error("unpack_columns: byte count is not a whole record");
  }
  const std::size_t n = bytes.size() / data::ContinuousColumns::bytes_per_record;
  if (n == 0) return 0;  // empty vectors may hold null pointers
  const std::size_t base = cols.size();
  cols.resize(base + n);
  const std::byte* cursor = bytes.data();
  std::memcpy(cols.values.data() + base, cursor, n * sizeof(double));
  cursor += n * sizeof(double);
  std::memcpy(cols.rids.data() + base, cursor, n * sizeof(std::int64_t));
  cursor += n * sizeof(std::int64_t);
  std::memcpy(cols.cls.data() + base, cursor, n * sizeof(std::int32_t));
  return n;
}

}  // namespace scalparc::sort
