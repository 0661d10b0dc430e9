#include "ooc/spill_file.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <unistd.h>

#include <atomic>
#include <filesystem>

namespace scalparc::ooc {

namespace {

std::string make_temp_path() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  const auto dir = std::filesystem::temp_directory_path();
  return (dir / ("scalparc_spill_" + std::to_string(::getpid()) + "_" +
                 std::to_string(id) + ".bin"))
      .string();
}

}  // namespace

TempFile::TempFile(IoStats* stats) : path_(make_temp_path()) {
  // Create the (empty) file eagerly so size/read work before any write.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("TempFile: cannot create " + path_);
  }
  std::fclose(f);
  if (stats != nullptr) ++stats->files_created;
}

TempFile::TempFile(TempFile&& other) noexcept : path_(std::move(other.path_)) {
  other.path_.clear();
}

TempFile& TempFile::operator=(TempFile&& other) noexcept {
  if (this != &other) {
    remove_file();
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

TempFile::~TempFile() { remove_file(); }

void TempFile::remove_file() noexcept {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    path_.clear();
  }
}

std::uint64_t TempFile::size_bytes() const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

namespace detail {

void write_bytes(const std::string& path, bool append, const void* data,
                 std::size_t bytes, IoStats* stats) {
  std::FILE* file = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file == nullptr) {
    throw std::runtime_error("spill_file: cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(data, 1, bytes, file);
  std::fclose(file);
  if (written != bytes) {
    throw std::runtime_error("spill_file: short write to " + path);
  }
  if (stats != nullptr) stats->bytes_written += bytes;
}

std::size_t read_bytes(std::FILE* file, void* data, std::size_t bytes,
                       IoStats* stats) {
  const std::size_t got = std::fread(data, 1, bytes, file);
  if (stats != nullptr) stats->bytes_read += got;
  return got;
}

}  // namespace detail

}  // namespace scalparc::ooc
