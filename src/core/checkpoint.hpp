// Level-granular checkpointing of the induction loop.
//
// The breadth-first induction of ScalParC is level-synchronous: at every
// level boundary all ranks hold a consistent global state (tree-so-far,
// active node set, per-rank attribute-list partitions). That boundary is
// the unit of fault containment: the loop writes a checkpoint there, and
// after any rank failure the run restarts from the last *complete* level
// and deterministically re-derives the identical tree.
//
// On-disk layout under a checkpoint root directory:
//
//   level_<L>/                 committed checkpoint of level L
//     MANIFEST                 global header (+ CRCs of the shared files)
//     tree.txt                 tree-so-far, tree_io text format
//     active.bin               active node set, flattened int64 records
//     rank<r>.manifest         per-rank section index (count, bytes, CRC32)
//     rank<r>_<section>.bin    per-rank binary sections (attribute lists)
//   staging_level_<L>/         in-progress write; atomically renamed to
//                              level_<L> once every rank has finished
//
// A checkpoint is valid only if the committed directory exists and every
// file matches the byte counts and CRC32 checksums recorded in the
// manifests. Truncated or corrupted files are rejected with
// CheckpointCorruptError — never silently mis-parsed.
//
// Durability and error classification: every write retries transient I/O
// failures with a capped backoff and fsyncs the file; commit fsyncs the
// staging directory before the atomic rename and the root directory after
// it, so a committed level_<L> name implies its contents are on disk.
// Failures split into two classes the recovery layer treats differently:
// CheckpointIoError (write side: disk full, permission, a transient error
// that outlived the retry budget — the checkpoint data is *not* at fault,
// retrying the job cannot help, abort) and CheckpointCorruptError (read
// side: bytes provably disagree with the recorded integrity metadata — the
// checkpoint is unusable, fall back to an earlier level or restart from
// scratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/tree.hpp"
#include "mp/metrics.hpp"

namespace scalparc::core {

struct CheckpointError : std::runtime_error {
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

// Write-side failure the checkpoint data is not responsible for: disk full,
// permission denied, or a transient error that survived the retry budget.
// The on-disk state may be incomplete but nothing valid was destroyed;
// retrying the run cannot help, so recovery treats this as unrecoverable.
struct CheckpointIoError : CheckpointError {
  explicit CheckpointIoError(const std::string& what)
      : CheckpointError("io: " + what) {}
};

// Read-side failure: bytes on disk provably disagree with the recorded
// integrity metadata (missing, truncated, CRC mismatch, unparseable). The
// checkpoint is unusable; recovery restarts from an earlier level or from
// scratch instead of aborting the job.
struct CheckpointCorruptError : CheckpointError {
  explicit CheckpointCorruptError(const std::string& what)
      : CheckpointError("corrupt: " + what) {}
};

// Global (rank-independent) header of one level checkpoint.
struct CheckpointManifest {
  int level = 0;
  int ranks = 0;
  int num_classes = 0;
  std::uint64_t total_records = 0;
  // FNV fingerprint of schema/options/strategy/total from the induction
  // argument-consistency check; a resume under different parameters (which
  // could not reproduce the tree) is rejected up front.
  std::uint64_t fingerprint = 0;
  std::uint64_t active_count = 0;  // int64 values in active.bin
  std::uint32_t active_crc = 0;
  std::uint64_t tree_bytes = 0;
  std::uint32_t tree_crc = 0;
};

std::string checkpoint_level_dir(const std::string& root, int level);
std::string checkpoint_staging_dir(const std::string& root, int level);

// Rank-0 side of a checkpoint write. prepare wipes and recreates the
// staging directory; write_globals stores tree.txt/active.bin/MANIFEST
// (filling the manifest's byte counts and CRCs); commit atomically renames
// staging to the committed name (replacing any stale one).
void checkpoint_prepare_staging(const std::string& root, int level);
void checkpoint_write_globals(const std::string& staging,
                              const DecisionTree& tree,
                              std::span<const std::int64_t> active_flat,
                              CheckpointManifest manifest);
void checkpoint_commit(const std::string& root, int level);

// Readers; all throw CheckpointError on missing/truncated/corrupt data.
CheckpointManifest checkpoint_read_manifest(const std::string& level_dir);
DecisionTree checkpoint_read_tree(const std::string& level_dir,
                                  const CheckpointManifest& manifest);
std::vector<std::int64_t> checkpoint_read_active(
    const std::string& level_dir, const CheckpointManifest& manifest);

// Highest level with a committed directory and parseable MANIFEST, or
// nullopt when the root holds no complete checkpoint.
std::optional<int> checkpoint_latest_level(const std::string& root);

namespace detail {
struct SectionInfo {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};
std::string rank_manifest_path(const std::string& dir, int rank);
std::string section_path(const std::string& dir, int rank,
                         const std::string& name);
void write_rank_manifest(const std::string& dir, int rank,
                         const std::vector<SectionInfo>& sections);
std::vector<SectionInfo> read_rank_manifest(const std::string& dir, int rank);
std::uint64_t file_size_or_throw(const std::string& path);

// Creates or truncates `path`, writes all of `bytes`, fsyncs and closes it,
// under retry_transient_io (`what` names the file in errors); returns the
// CRC32 of `bytes`. Every checkpoint file is written through here.
std::uint32_t write_file_durably(const std::string& path,
                                 std::span<const std::byte> bytes,
                                 const std::string& what);

// Reads `bytes` bytes from the start of `path` into `out` and checks their
// CRC32 against `crc`; a file that cannot be opened, ends early or fails the
// check throws CheckpointCorruptError.
void read_bytes_verified(const std::string& path, void* out,
                         std::uint64_t bytes, std::uint32_t crc);

// Reads a file a manifest records as `count` records of T with CRC32 `crc`.
// The file is stat'ed before anything is allocated, so a count that
// disagrees with the file's size (one whose byte size overflows included)
// throws CheckpointCorruptError, as do a short read and a CRC mismatch.
template <typename T>
std::vector<T> read_file_verified(const std::string& path, std::uint64_t count,
                                  std::uint32_t crc) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t size = file_size_or_throw(path);
  if (size % sizeof(T) != 0 || size / sizeof(T) != count) {
    throw CheckpointCorruptError("'" + path +
                                 "' does not match its manifest size");
  }
  std::vector<T> out(static_cast<std::size_t>(count));
  read_bytes_verified(path, out.data(), size, crc);
  return out;
}

// Runs `attempt`, retrying transient failures with a capped backoff
// (checkpoint.write_retries counts the retries). Once the budget is spent
// the last error is rethrown as CheckpointIoError. All hardened write
// paths funnel through here, which is also where the test-only write-fault
// hook below injects its failures.
void retry_transient_io(const std::string& what,
                        const std::function<void()>& attempt);

// fsyncs a directory (checkpoint.fsyncs counts the calls, as it counts the
// files write_file_durably syncs); throws CheckpointIoError on failure.
void fsync_path(const std::string& path);

// Test-only write-fault injection: the next `failures` hardened write
// attempts (process-wide) fail as if the filesystem returned a transient
// error. `failures` within the retry budget heals silently; beyond it the
// write classifies as CheckpointIoError. Cleared automatically as attempts
// consume the count, or explicitly.
void arm_checkpoint_write_fault(int failures);
void clear_checkpoint_write_fault();
}  // namespace detail

// Writes one rank's binary sections into a staging directory and records
// their integrity metadata in rank<r>.manifest on finalize().
class CheckpointRankWriter {
 public:
  CheckpointRankWriter(std::string staging_dir, int rank)
      : dir_(std::move(staging_dir)), rank_(rank) {}

  template <typename T>
  void write_section(const std::string& name, std::span<const T> records) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint32_t crc = detail::write_file_durably(
        detail::section_path(dir_, rank_, name), std::as_bytes(records),
        "section '" + name + "'");
    sections_.push_back(
        detail::SectionInfo{name, records.size(), records.size_bytes(), crc});
    if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
      sink->add("checkpoint.sections_written", 1);
      sink->add("checkpoint.bytes_written",
                static_cast<double>(records.size_bytes()));
    }
  }

  void finalize() { detail::write_rank_manifest(dir_, rank_, sections_); }

 private:
  std::string dir_;
  int rank_;
  std::vector<detail::SectionInfo> sections_;
};

// Reads one rank's sections back, verifying byte counts and CRCs.
class CheckpointRankReader {
 public:
  CheckpointRankReader(std::string level_dir, int rank)
      : dir_(std::move(level_dir)),
        rank_(rank),
        sections_(detail::read_rank_manifest(dir_, rank_)) {}

  int rank() const { return rank_; }

  template <typename T>
  std::vector<T> read_section(const std::string& name) {
    const detail::SectionInfo* info = nullptr;
    for (const detail::SectionInfo& s : sections_) {
      if (s.name == name) info = &s;
    }
    if (info == nullptr) {
      throw CheckpointCorruptError("rank " + std::to_string(rank_) +
                                   " has no section '" + name + "'");
    }
    if (info->bytes % sizeof(T) != 0 ||
        info->bytes / sizeof(T) != info->count) {
      throw CheckpointCorruptError("section '" + name +
                                   "' has inconsistent size");
    }
    std::vector<T> out = detail::read_file_verified<T>(
        detail::section_path(dir_, rank_, name), info->count, info->crc);
    if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
      sink->add("checkpoint.sections_read", 1);
      sink->add("checkpoint.bytes_read", static_cast<double>(info->bytes));
    }
    return out;
  }

 private:
  std::string dir_;
  int rank_;
  std::vector<detail::SectionInfo> sections_;
};

}  // namespace scalparc::core
