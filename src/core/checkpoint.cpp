#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tree_io.hpp"
#include "mp/telemetry.hpp"
#include "util/crc32.hpp"

namespace scalparc::core {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestHeader = "scalparc-ckpt v1";
constexpr const char* kRankManifestHeader = "scalparc-ckpt-rank v1";

// Injected by the test-only write-fault hook; a distinct type so the retry
// loop can tell "simulated transient failure" apart in diagnostics.
struct TransientWriteFault : std::runtime_error {
  explicit TransientWriteFault(const std::string& what)
      : std::runtime_error(what) {}
};

std::atomic<int> g_write_faults_armed{0};

void maybe_inject_write_fault(const std::string& what) {
  int armed = g_write_faults_armed.load(std::memory_order_relaxed);
  while (armed > 0) {
    if (g_write_faults_armed.compare_exchange_weak(
            armed, armed - 1, std::memory_order_relaxed)) {
      throw TransientWriteFault("injected transient write fault at " + what);
    }
  }
}

std::span<const std::byte> bytes_of(const std::string& text) {
  return std::as_bytes(std::span<const char>(text));
}

// fsyncs an open file or directory; checkpoint.fsyncs counts the successes.
bool counted_fsync(int fd) {
  if (::fsync(fd) != 0) return false;
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("checkpoint.fsyncs", 1);
  }
  return true;
}

}  // namespace

std::string checkpoint_level_dir(const std::string& root, int level) {
  return (fs::path(root) / ("level_" + std::to_string(level))).string();
}

std::string checkpoint_staging_dir(const std::string& root, int level) {
  return (fs::path(root) / ("staging_level_" + std::to_string(level))).string();
}

void checkpoint_prepare_staging(const std::string& root, int level) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) throw CheckpointIoError("cannot create root '" + root + "'");
  const fs::path staging = checkpoint_staging_dir(root, level);
  fs::remove_all(staging, ec);  // stale leftovers from an aborted write
  if (!fs::create_directory(staging, ec) || ec) {
    throw CheckpointIoError("cannot create staging '" + staging.string() +
                            "'");
  }
}

void checkpoint_write_globals(const std::string& staging,
                              const DecisionTree& tree,
                              std::span<const std::int64_t> active_flat,
                              CheckpointManifest manifest) {
  // Tree-so-far in the tree_io text format (exact round trip).
  std::ostringstream tree_text;
  save_tree(tree, tree_text);
  const std::string tree_bytes = tree_text.str();
  manifest.tree_bytes = tree_bytes.size();
  manifest.tree_crc = detail::write_file_durably(
      (fs::path(staging) / "tree.txt").string(), bytes_of(tree_bytes),
      "tree.txt");
  manifest.active_count = active_flat.size();
  manifest.active_crc = detail::write_file_durably(
      (fs::path(staging) / "active.bin").string(), std::as_bytes(active_flat),
      "active.bin");

  std::ostringstream out;
  out << kManifestHeader << '\n';
  out << "level " << manifest.level << '\n';
  out << "ranks " << manifest.ranks << '\n';
  out << "classes " << manifest.num_classes << '\n';
  out << "records " << manifest.total_records << '\n';
  out << "fingerprint " << manifest.fingerprint << '\n';
  out << "active " << manifest.active_count << ' ' << manifest.active_crc
      << '\n';
  out << "tree " << manifest.tree_bytes << ' ' << manifest.tree_crc << '\n';
  out << "end\n";
  detail::write_file_durably((fs::path(staging) / "MANIFEST").string(),
                             bytes_of(out.str()), "MANIFEST");
}

void checkpoint_commit(const std::string& root, int level) {
  const fs::path staging = checkpoint_staging_dir(root, level);
  const fs::path committed = checkpoint_level_dir(root, level);
  // The per-file writes fsynced their data; syncing the staging directory
  // pins the file *names* before the rename makes them reachable under the
  // committed name, and syncing the root afterwards pins the rename itself.
  detail::fsync_path(staging.string());
  detail::retry_transient_io("commit level " + std::to_string(level), [&] {
    std::error_code ec;
    fs::remove_all(committed, ec);  // replace a stale checkpoint of this level
    fs::rename(staging, committed, ec);
    if (ec) {
      throw CheckpointError("cannot commit level " + std::to_string(level) +
                            ": " + ec.message());
    }
  });
  detail::fsync_path(root);
}

CheckpointManifest checkpoint_read_manifest(const std::string& level_dir) {
  const std::string path = (fs::path(level_dir) / "MANIFEST").string();
  std::ifstream in(path);
  if (!in) throw CheckpointCorruptError("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    throw CheckpointCorruptError("'" + path + "' has a bad header");
  }
  CheckpointManifest manifest;
  std::string key;
  bool complete = false;
  while (in >> key) {
    if (key == "level") {
      if (!(in >> manifest.level)) break;
    } else if (key == "ranks") {
      if (!(in >> manifest.ranks)) break;
    } else if (key == "classes") {
      if (!(in >> manifest.num_classes)) break;
    } else if (key == "records") {
      if (!(in >> manifest.total_records)) break;
    } else if (key == "fingerprint") {
      if (!(in >> manifest.fingerprint)) break;
    } else if (key == "active") {
      if (!(in >> manifest.active_count >> manifest.active_crc)) break;
    } else if (key == "tree") {
      if (!(in >> manifest.tree_bytes >> manifest.tree_crc)) break;
    } else if (key == "end") {
      complete = true;
      break;
    } else {
      throw CheckpointCorruptError("'" + path + "' has unknown key '" + key + "'");
    }
  }
  if (!complete) {
    throw CheckpointCorruptError("'" + path + "' is truncated (no 'end' marker)");
  }
  if (manifest.ranks <= 0 || manifest.level < 0 || manifest.num_classes < 2) {
    throw CheckpointCorruptError("'" + path + "' has implausible header fields");
  }
  return manifest;
}

DecisionTree checkpoint_read_tree(const std::string& level_dir,
                                  const CheckpointManifest& manifest) {
  const std::vector<char> bytes = detail::read_file_verified<char>(
      (fs::path(level_dir) / "tree.txt").string(), manifest.tree_bytes,
      manifest.tree_crc);
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    return load_tree(in);
  } catch (const std::exception& e) {
    throw CheckpointCorruptError(std::string("tree.txt does not parse: ") + e.what());
  }
}

std::vector<std::int64_t> checkpoint_read_active(
    const std::string& level_dir, const CheckpointManifest& manifest) {
  return detail::read_file_verified<std::int64_t>(
      (fs::path(level_dir) / "active.bin").string(), manifest.active_count,
      manifest.active_crc);
}

std::optional<int> checkpoint_latest_level(const std::string& root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec) || ec) return std::nullopt;
  std::optional<int> best;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    constexpr const char* kPrefix = "level_";
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::string digits = name.substr(6);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const int level = std::stoi(digits);
    try {
      (void)checkpoint_read_manifest(entry.path().string());
    } catch (const CheckpointError&) {
      continue;  // incomplete or damaged: not a candidate
    }
    if (!best || level > *best) best = level;
  }
  return best;
}

namespace detail {

std::string rank_manifest_path(const std::string& dir, int rank) {
  return (fs::path(dir) / ("rank" + std::to_string(rank) + ".manifest"))
      .string();
}

std::string section_path(const std::string& dir, int rank,
                         const std::string& name) {
  return (fs::path(dir) / ("rank" + std::to_string(rank) + "_" + name + ".bin"))
      .string();
}

void write_rank_manifest(const std::string& dir, int rank,
                         const std::vector<SectionInfo>& sections) {
  std::ostringstream out;
  out << kRankManifestHeader << '\n';
  out << "rank " << rank << '\n';
  out << "sections " << sections.size() << '\n';
  for (const SectionInfo& s : sections) {
    out << "section " << s.name << ' ' << s.count << ' ' << s.bytes << ' '
        << s.crc << '\n';
  }
  out << "end\n";
  write_file_durably(rank_manifest_path(dir, rank), bytes_of(out.str()),
                     "rank manifest");
}

std::vector<SectionInfo> read_rank_manifest(const std::string& dir, int rank) {
  const std::string path = rank_manifest_path(dir, rank);
  std::ifstream in(path);
  if (!in) throw CheckpointCorruptError("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line) || line != kRankManifestHeader) {
    throw CheckpointCorruptError("'" + path + "' has a bad header");
  }
  std::string key;
  int stored_rank = -1;
  std::size_t count = 0;
  if (!(in >> key >> stored_rank) || key != "rank" || stored_rank != rank) {
    throw CheckpointCorruptError("'" + path + "' names the wrong rank");
  }
  if (!(in >> key >> count) || key != "sections") {
    throw CheckpointCorruptError("'" + path + "' has a bad sections line");
  }
  // Not reserved from `count`: a damaged count must fail at its first
  // missing line, not size an allocation first.
  std::vector<SectionInfo> sections;
  for (std::size_t i = 0; i < count; ++i) {
    SectionInfo info;
    if (!(in >> key >> info.name >> info.count >> info.bytes >> info.crc) ||
        key != "section") {
      throw CheckpointCorruptError("'" + path + "' has a bad section line");
    }
    sections.push_back(std::move(info));
  }
  if (!(in >> key) || key != "end") {
    throw CheckpointCorruptError("'" + path + "' is truncated (no 'end' marker)");
  }
  return sections;
}

std::uint64_t file_size_or_throw(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) throw CheckpointCorruptError("cannot stat '" + path + "'");
  return static_cast<std::uint64_t>(size);
}

std::uint32_t write_file_durably(const std::string& path,
                                 std::span<const std::byte> bytes,
                                 const std::string& what) {
  retry_transient_io(what, [&] {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0) throw CheckpointError("cannot write " + what);
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ::close(fd);
        throw CheckpointError("short write to " + what);
      }
      done += static_cast<std::size_t>(n);
    }
    const bool synced = counted_fsync(fd);
    const bool closed = ::close(fd) == 0;
    if (!synced || !closed) {
      throw CheckpointIoError("fsync('" + path + "') failed");
    }
  });
  return util::crc32(bytes);
}

void read_bytes_verified(const std::string& path, void* out,
                         std::uint64_t bytes, std::uint32_t crc) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw CheckpointCorruptError("cannot open '" + path + "'");
  auto* dst = static_cast<std::byte*>(out);
  std::uint64_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::read(fd, dst + done, bytes - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::uint64_t>(n);
  }
  ::close(fd);
  if (done != bytes) {
    throw CheckpointCorruptError("'" + path + "' is truncated");
  }
  if (util::crc32(dst, bytes) != crc) {
    throw CheckpointCorruptError("'" + path + "' failed its CRC32 check");
  }
}

void retry_transient_io(const std::string& what,
                        const std::function<void()>& attempt) {
  constexpr int kMaxAttempts = 4;
  double backoff_ms = 1.0;
  constexpr double kBackoffCapMs = 50.0;
  for (int tries = 1;; ++tries) {
    try {
      maybe_inject_write_fault(what);
      attempt();
      return;
    } catch (const CheckpointIoError&) {
      throw;  // a nested hardened write already spent its own budget
    } catch (const std::exception& e) {
      if (tries >= kMaxAttempts) {
        telemetry::record_event("checkpoint_io_error",
                                what + " failed after " +
                                    std::to_string(tries) +
                                    " attempts: " + e.what());
        throw CheckpointIoError(what + " failed after " +
                                std::to_string(tries) +
                                " attempts: " + e.what());
      }
      if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
        sink->add("checkpoint.write_retries", 1);
      }
      telemetry::record_event(
          "checkpoint_io_error",
          what + " attempt " + std::to_string(tries) + " failed (" + e.what() +
              "), retrying in " + std::to_string(backoff_ms) + "ms");
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms = std::min(backoff_ms * 4.0, kBackoffCapMs);
    }
  }
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw CheckpointIoError("cannot open '" + path + "' for fsync");
  }
  const bool synced = counted_fsync(fd);
  ::close(fd);
  if (!synced) throw CheckpointIoError("fsync('" + path + "') failed");
}

void arm_checkpoint_write_fault(int failures) {
  g_write_faults_armed.store(failures, std::memory_order_relaxed);
}

void clear_checkpoint_write_fault() {
  g_write_faults_armed.store(0, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace scalparc::core
