#include "core/checkpoint.hpp"

#include <algorithm>
#include <atomic>
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

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "core/tree_io.hpp"
#include "mp/telemetry.hpp"
#include "util/crc32.hpp"
#include "util/read_all.hpp"

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

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointCorruptError("cannot open '" + path + "'");
  return util::read_all(in);
}

// Writes `text` to `path` and fsyncs it, under the transient-I/O retry.
void write_text_file_durably(const std::string& path, const std::string& text,
                             const std::string& what) {
  detail::retry_transient_io(what, [&] {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw CheckpointError("cannot write " + what);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out) throw CheckpointError("short write to " + what);
    detail::fsync_path(path);
  });
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
  write_text_file_durably((fs::path(staging) / "tree.txt").string(),
                          tree_bytes, "tree.txt");
  manifest.tree_bytes = tree_bytes.size();
  manifest.tree_crc = util::crc32(tree_bytes.data(), tree_bytes.size());

  {
    const std::string active_path = (fs::path(staging) / "active.bin").string();
    detail::retry_transient_io("active.bin", [&] {
      ooc::TypedWriter<std::int64_t> writer(active_path);
      writer.append(active_flat);
      writer.flush();
      manifest.active_count = writer.count();
      manifest.active_crc = writer.crc();
      detail::fsync_path(active_path);
    });
  }

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
  write_text_file_durably((fs::path(staging) / "MANIFEST").string(), out.str(),
                          "MANIFEST");
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
  const std::string path = (fs::path(level_dir) / "tree.txt").string();
  const std::string bytes = read_whole_file(path);
  if (bytes.size() != manifest.tree_bytes) {
    throw CheckpointCorruptError("tree.txt does not match its manifest size");
  }
  if (util::crc32(bytes.data(), bytes.size()) != manifest.tree_crc) {
    throw CheckpointCorruptError("tree.txt failed its CRC32 check");
  }
  std::istringstream in(bytes);
  try {
    return load_tree(in);
  } catch (const std::exception& e) {
    throw CheckpointCorruptError(std::string("tree.txt does not parse: ") + e.what());
  }
}

std::vector<std::int64_t> checkpoint_read_active(
    const std::string& level_dir, const CheckpointManifest& manifest) {
  const std::string path = (fs::path(level_dir) / "active.bin").string();
  if (detail::file_size_or_throw(path) !=
      manifest.active_count * sizeof(std::int64_t)) {
    throw CheckpointCorruptError("active.bin does not match its manifest size");
  }
  ooc::TypedReader<std::int64_t> reader(path, nullptr, 4096, 0,
                                        manifest.active_count);
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(manifest.active_count));
  if (reader.read_chunk(std::span<std::int64_t>(out)) != out.size()) {
    throw CheckpointCorruptError("active.bin is truncated");
  }
  if (reader.crc() != manifest.active_crc) {
    throw CheckpointCorruptError("active.bin failed its CRC32 check");
  }
  return out;
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
  write_text_file_durably(rank_manifest_path(dir, rank), out.str(),
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
  std::vector<SectionInfo> sections;
  sections.reserve(count);
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
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CheckpointIoError("cannot open '" + path + "' for fsync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw CheckpointIoError("fsync('" + path + "') failed");
  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
    sink->add("checkpoint.fsyncs", 1);
  }
#else
  (void)path;  // durability auditing is POSIX-only
#endif
}

void arm_checkpoint_write_fault(int failures) {
  g_write_faults_armed.store(failures, std::memory_order_relaxed);
}

void clear_checkpoint_write_fault() {
  g_write_faults_armed.store(0, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace scalparc::core
