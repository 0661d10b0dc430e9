// Disk-backed storage for out-of-core attribute lists.
//
// The SLIQ/SPRINT/ScalParC papers target training sets larger than main
// memory; §2 describes how a serial classifier whose rid -> child hash table
// does not fit must make "multiple passes over each of the attribute lists
// causing expensive disk I/O". This module provides the substrate for
// reproducing that regime on one machine:
//
//   TempFile        RAII temporary file (unlinked on destruction)
//   TypedWriter<T>  buffered sequential writer of trivially-copyable records
//   TypedReader<T>  buffered sequential reader
//   IoStats         byte/operation accounting shared by a whole computation
//
// All I/O is charged to an IoStats instance so benches can report exactly
// how much disk traffic a memory budget costs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace scalparc::ooc {

struct IoStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t files_created = 0;
  // Number of full re-reads of an attribute file forced by hash-table
  // passes (see MultiPassSplit in ooc_sprint).
  std::uint64_t extra_passes = 0;
};

// A uniquely named file under the system temp directory, removed on
// destruction. Movable, not copyable.
class TempFile {
 public:
  explicit TempFile(IoStats* stats = nullptr);
  TempFile(TempFile&& other) noexcept;
  TempFile& operator=(TempFile&& other) noexcept;
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile();

  const std::string& path() const { return path_; }
  std::uint64_t size_bytes() const;

 private:
  void remove_file() noexcept;
  std::string path_;
};

namespace detail {
void write_bytes(const std::string& path, bool append, const void* data,
                 std::size_t bytes, IoStats* stats);
std::size_t read_bytes(std::FILE* file, void* data, std::size_t bytes,
                       IoStats* stats);
}  // namespace detail

// Appends records of T to a file with an in-memory staging buffer.
template <typename T>
class TypedWriter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit TypedWriter(const TempFile& file, IoStats* stats = nullptr,
                       std::size_t buffer_records = 4096)
      : path_(file.path()), stats_(stats), buffer_limit_(buffer_records) {
    buffer_.reserve(buffer_limit_);
  }
  TypedWriter(const TypedWriter&) = delete;
  TypedWriter& operator=(const TypedWriter&) = delete;
  ~TypedWriter() { flush(); }

  void append(const T& record) {
    buffer_.push_back(record);
    ++count_;
    if (buffer_.size() >= buffer_limit_) flush();
  }
  void append(std::span<const T> records) {
    for (const T& r : records) append(r);
  }

  void flush() {
    if (buffer_.empty()) return;
    const std::size_t bytes = buffer_.size() * sizeof(T);
    detail::write_bytes(path_, /*append=*/true, buffer_.data(), bytes, stats_);
    buffer_.clear();
  }

  std::uint64_t count() const { return count_; }

 private:
  std::string path_;
  IoStats* stats_;
  std::size_t buffer_limit_;
  std::vector<T> buffer_;
  std::uint64_t count_ = 0;
};

// Sequentially reads records of T from a file with a staging buffer.
// Optionally reads only the window [start_record, start_record + max_records)
// so several cursors can merge runs stored in one file.
template <typename T>
class TypedReader {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit TypedReader(const TempFile& file, IoStats* stats = nullptr,
                       std::size_t buffer_records = 4096,
                       std::uint64_t start_record = 0,
                       std::uint64_t max_records = UINT64_MAX)
      : stats_(stats), buffer_limit_(buffer_records), remaining_(max_records) {
    file_ = std::fopen(file.path().c_str(), "rb");
    // A never-written file is an empty stream, not an error.
    if (file_ != nullptr && start_record > 0) {
      if (std::fseek(file_, static_cast<long>(start_record * sizeof(T)),
                     SEEK_SET) != 0) {
        std::fclose(file_);
        file_ = nullptr;
      }
    }
  }
  TypedReader(const TypedReader&) = delete;
  TypedReader& operator=(const TypedReader&) = delete;
  ~TypedReader() {
    if (file_ != nullptr) std::fclose(file_);
  }

  // Returns false at end of stream.
  bool next(T& record) {
    if (cursor_ == buffer_.size() && !refill()) return false;
    record = buffer_[cursor_++];
    return true;
  }

  // Reads up to `max_records`; returns how many were read.
  std::size_t read_chunk(std::span<T> out) {
    std::size_t got = 0;
    while (got < out.size() && next(out[got])) ++got;
    return got;
  }

 private:
  bool refill() {
    if (file_ == nullptr || remaining_ == 0) return false;
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(buffer_limit_, remaining_));
    buffer_.resize(want);
    const std::size_t bytes =
        detail::read_bytes(file_, buffer_.data(), want * sizeof(T), stats_);
    if (bytes % sizeof(T) != 0) {
      throw std::runtime_error("TypedReader: truncated record on disk");
    }
    buffer_.resize(bytes / sizeof(T));
    remaining_ -= buffer_.size();
    cursor_ = 0;
    return !buffer_.empty();
  }

  std::FILE* file_ = nullptr;
  IoStats* stats_;
  std::size_t buffer_limit_;
  std::uint64_t remaining_;
  std::vector<T> buffer_;
  std::size_t cursor_ = 0;
};

// Convenience: spill a vector to a fresh temp file.
template <typename T>
TempFile spill(std::span<const T> records, IoStats* stats = nullptr) {
  TempFile file(stats);
  TypedWriter<T> writer(file, stats);
  writer.append(records);
  return file;
}

// Convenience: slurp a whole file (tests only — defeats the point otherwise).
template <typename T>
std::vector<T> slurp(const TempFile& file, IoStats* stats = nullptr) {
  TypedReader<T> reader(file, stats);
  std::vector<T> out;
  T record;
  while (reader.next(record)) out.push_back(record);
  return out;
}

}  // namespace scalparc::ooc
