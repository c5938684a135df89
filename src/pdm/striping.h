// Striped ("consecutive format") layout helpers and the FIFO write/read
// batching discipline of the paper's DiskWrite procedure.
//
// TrackSpace / TrackRegion carve the single unbounded track space of a
// DiskArray into independent regions (context store, message matrix, user
// data areas) while keeping one DiskArray so that the parallel-op legality
// rule and the I/O statistics stay unified. A region allocates physical
// track ranges lazily in fixed-size chunks; the same range is reserved on
// every disk, so consecutive-format addressing inside a region is exactly
// the paper's footnote-2 scheme.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pdm/disk_array.h"
#include "pdm/geometry.h"
#include "util/math.h"

namespace emcgm::pdm {

/// Bump allocator of physical track ranges, shared by all regions of one
/// DiskArray. Ranges apply to every disk simultaneously. Nothing is freed
/// individually; the whole space is scoped to one run instead — EmEngine
/// drops every region of the previous run and reset()s the space at
/// start(), so a reused engine's disks stay within its largest single run.
class TrackSpace {
 public:
  std::uint64_t acquire(std::uint64_t tracks) {
    const std::uint64_t t = next_;
    next_ += tracks;
    return t;
  }
  std::uint64_t high_water() const { return next_; }

  /// Hand every track back. Only valid once no region acquired before the
  /// reset is used again (their tracks are handed out again from 0).
  void reset() { next_ = 0; }

 private:
  std::uint64_t next_ = 0;
};

/// A logically contiguous, physically chunked band of tracks.
class TrackRegion {
 public:
  TrackRegion(TrackSpace& space, std::uint64_t chunk_tracks = 1024)
      : space_(&space), chunk_tracks_(chunk_tracks) {
    EMCGM_CHECK(chunk_tracks_ >= 1);
  }

  /// Map a logical track to its physical track, growing the region to cover
  /// it if needed.
  std::uint64_t physical_track(std::uint64_t ltrack) {
    const std::uint64_t chunk = ltrack / chunk_tracks_;
    while (chunk >= chunks_.size()) {
      chunks_.push_back(space_->acquire(chunk_tracks_));
    }
    return chunks_[chunk] + ltrack % chunk_tracks_;
  }

  std::uint64_t tracks_reserved() const {
    return chunks_.size() * chunk_tracks_;
  }

 private:
  TrackSpace* space_;
  std::uint64_t chunk_tracks_;
  std::vector<std::uint64_t> chunks_;  // physical base track of each chunk
};

/// A consecutive-format run of blocks inside a region: the q-th block lives
/// on disk (start_disk + q) mod D at logical track
/// start_track + (start_disk + q) / D.
struct Extent {
  std::uint32_t start_disk = 0;
  std::uint64_t start_track = 0;
  std::uint64_t bytes = 0;

  std::uint64_t blocks(std::size_t block_bytes) const {
    return ceil_div(bytes, block_bytes);
  }

  BlockAddr addr(std::uint32_t D, std::uint64_t q) const {
    return consecutive_addr(D, start_disk, start_track, q);
  }
};

/// Bump allocator of extents within one region, tracking the global block
/// cursor so consecutive allocations continue the stripe seamlessly
/// (no disk is skipped between extents — writes across extents can share
/// parallel ops).
class StripeCursor {
 public:
  explicit StripeCursor(std::uint32_t num_disks) : D_(num_disks) {
    EMCGM_CHECK(D_ >= 1);
  }

  Extent alloc(std::uint64_t bytes, std::size_t block_bytes) {
    Extent e;
    // Global block g maps to disk g mod D, track g / D; consecutive_addr
    // reproduces this for block q of the extent given (g mod D, g / D).
    e.start_disk = static_cast<std::uint32_t>(next_block_ % D_);
    e.start_track = next_block_ / D_;
    e.bytes = bytes;
    next_block_ += ceil_div(bytes, block_bytes);
    return e;
  }

  void reset() { next_block_ = 0; }
  std::uint64_t blocks_allocated() const { return next_block_; }

  /// Rewind/replay support for checkpoint recovery: restore the cursor to a
  /// previously observed blocks_allocated() position.
  void restore(std::uint64_t blocks) { next_block_ = blocks; }

 private:
  std::uint32_t D_;
  std::uint64_t next_block_ = 0;
};

/// Write an extent's bytes in consecutive format: ceil(blocks/D) parallel
/// ops, all but the first/last fully striped. The final partial block is
/// zero-padded.
void write_striped(DiskArray& array, TrackRegion& region, const Extent& e,
                   std::span<const std::byte> data);

/// Read an extent previously written with write_striped. out.size() must be
/// e.bytes.
void read_striped(DiskArray& array, TrackRegion& region, const Extent& e,
                  std::span<std::byte> out);

/// Async (prefetch) variant of read_striped: issues the same batches through
/// parallel_read_async and returns the last ticket. `out` must hold whole
/// blocks — e.blocks(B) * B bytes — so no tail staging is needed; the caller
/// trims to e.bytes after waiting. In serial mode the reads execute
/// immediately and the returned ticket is already complete.
IoTicket read_striped_async(DiskArray& array, TrackRegion& region,
                            const Extent& e, std::span<std::byte> out);

/// Order-free batched read: slots are grouped into parallel ops by pulling
/// one pending block per disk per op (round-robin over per-disk queues).
/// Achieves max_d(blocks on disk d) ops — optimal for any fixed assignment
/// of blocks to disks. Used where slots come from scattered extents whose
/// FIFO order would conflict needlessly. Submitted without waiting; returns
/// the last ticket (0 when slots is empty or in serial mode).
IoTicket greedy_read_async(DiskArray& array, std::span<const ReadSlot> slots);

/// FIFO batched write, per the paper's DiskWrite procedure: slots are
/// serviced strictly in order; a parallel op accumulates slots until one
/// conflicts (same disk) with an earlier slot of the op or the op holds D
/// blocks. Returns the number of parallel ops issued.
std::uint64_t fifo_write(DiskArray& array, std::span<const WriteSlot> slots);

/// FIFO batched read with the same discipline.
std::uint64_t fifo_read(DiskArray& array, std::span<const ReadSlot> slots);

}  // namespace emcgm::pdm
