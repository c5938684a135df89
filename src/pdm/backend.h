// Storage backends for the simulated disk array.
//
// MemoryBackend keeps the written tracks in RAM — the default for tests and
// benchmarks, where only the I/O *counts* matter. FileBackend stores one
// flat file per simulated disk and performs real pread/pwrite at
// track-aligned offsets, demonstrating that the same code path drives real
// external storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pdm/geometry.h"

namespace emcgm::pdm {

/// Abstract per-disk block store. Implementations must allow sparse writes:
/// a write may land at any track, never-written tracks below it read as
/// zeros, and the disk's high-water mark (tracks_used) becomes at least
/// t + 1. Whether the gaps below the mark occupy memory or disk is up to the
/// implementation.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Copy one block from (disk, track) into out (exactly block_bytes long).
  /// Reading a never-written track yields zero bytes.
  virtual void read_block(std::uint32_t disk, std::uint64_t track,
                          std::span<std::byte> out) = 0;

  /// Copy one block (exactly block_bytes long) to (disk, track).
  virtual void write_block(std::uint32_t disk, std::uint64_t track,
                           std::span<const std::byte> data) = 0;

  /// High-water mark of one disk: highest written track + 1 (0 if never
  /// written). This is what the quota counts, not resident bytes.
  virtual std::uint64_t tracks_used(std::uint32_t disk) const = 0;

  /// Called by DiskArray once per parallel I/O operation, before its block
  /// transfers. Default: no-op. FaultInjectingBackend counts these to model
  /// fail-stop crashes "after K parallel I/Os".
  virtual void note_parallel_op() {}

  /// Force every completed write down to durable storage. Default: no-op
  /// (MemoryBackend has no durability to speak of). FileBackend fsyncs each
  /// disk file; commit() calls this before declaring a boundary committed,
  /// so a committed checkpoint survives the host, not just the process.
  virtual void sync() {}

  /// Per-disk capacity quota in bytes (0 = unlimited, the default). A write
  /// that would raise a disk's high-water mark past the quota throws
  /// IoError(kNoSpace) before touching the media; writes below the mark
  /// always succeed, so lowering the quota under live data never bricks
  /// it — and raising (or clearing) the quota makes the refused writes
  /// succeed verbatim, which is what lets a checkpointed run resume
  /// bit-identically after space is freed. Quotas count the bytes on
  /// the media, i.e. the *physical* block size (checksum envelope included).
  /// Decorators (FaultInjectingBackend) forward to the innermost store.
  virtual void set_disk_quota_bytes(std::uint64_t quota) { quota_ = quota; }
  virtual std::uint64_t disk_quota_bytes() const { return quota_; }

  const DiskGeometry& geometry() const { return geom_; }

 protected:
  explicit StorageBackend(const DiskGeometry& geom) : geom_(geom) {
    geom_.validate();
  }

  /// Quota check for write paths: throws IoError(kNoSpace) when writing
  /// `track` would raise `disk`'s high-water mark beyond the quota (the
  /// mark counts every track below it, written or not).
  void ensure_space(std::uint32_t disk, std::uint64_t track) const;

  DiskGeometry geom_;

 private:
  std::uint64_t quota_ = 0;  ///< per-disk byte quota; 0 = unlimited
};

/// In-RAM backing store, sparse: each disk is a table of fixed-size chunks
/// of kChunkTracks tracks, allocated (zero-filled) on the first write into
/// the chunk. A write far above the high-water mark allocates one chunk —
/// no gap below it is materialized and nothing is ever regrown or copied.
/// Threading: a disk's chunk table is touched only by that disk's I/O
/// (one owning executor worker per disk, see io_executor.h).
class MemoryBackend final : public StorageBackend {
 public:
  static constexpr std::uint64_t kChunkTracks = 64;

  explicit MemoryBackend(const DiskGeometry& geom);

  void read_block(std::uint32_t disk, std::uint64_t track,
                  std::span<std::byte> out) override;
  void write_block(std::uint32_t disk, std::uint64_t track,
                   std::span<const std::byte> data) override;
  std::uint64_t tracks_used(std::uint32_t disk) const override;

 private:
  struct Disk {
    /// chunks[c] holds tracks [c * kChunkTracks, (c + 1) * kChunkTracks);
    /// null = no track of the chunk was ever written.
    std::vector<std::unique_ptr<std::byte[]>> chunks;
    std::uint64_t tracks = 0;  ///< highest written track + 1
  };

  std::vector<Disk> disks_;
};

/// One flat file per disk under a caller-supplied directory. Files are
/// created on first use and removed in the destructor.
class FileBackend final : public StorageBackend {
 public:
  FileBackend(const DiskGeometry& geom, std::string directory);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  void read_block(std::uint32_t disk, std::uint64_t track,
                  std::span<std::byte> out) override;
  void write_block(std::uint32_t disk, std::uint64_t track,
                   std::span<const std::byte> data) override;
  std::uint64_t tracks_used(std::uint32_t disk) const override;
  void sync() override;

  const std::string& directory() const { return dir_; }

 private:
  std::string dir_;
  std::vector<int> fds_;          // one file descriptor per disk
  std::vector<std::string> paths_;
  int dir_fd_ = -1;               // for fsyncing the directory entries
};

/// Backend choice for configuration structs.
enum class BackendKind { kMemory, kFile };

std::unique_ptr<StorageBackend> make_backend(BackendKind kind,
                                             const DiskGeometry& geom,
                                             const std::string& file_dir = "");

}  // namespace emcgm::pdm
