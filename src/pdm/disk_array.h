// The Parallel Disk Model I/O device of one (real) processor.
//
// DiskArray is where the model's cost rule is *enforced*, not just counted:
// a parallel operation names up to D blocks, and submitting two blocks on
// the same disk in one operation is a contract violation (throws). Layout
// code above this layer (striping.h, emcgm/message_store.*) must therefore
// genuinely achieve the parallelism it claims — the op counts reported in
// benchmarks cannot be gamed by accident.
//
// With options().io_threads > 0 the array executes ops through the per-disk
// async executor (io_executor.h): parallel_write becomes write-behind
// (payloads are copied; completion deferred to the next wait/drain/sync),
// parallel_read waits for its own op, and the *_async variants expose
// tickets for prefetch pipelines. Per-disk FIFO order makes read-after-write
// on a disk safe without waiting. io_threads == 0 keeps the original serial
// path, bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pdm/backend.h"
#include "pdm/checksum.h"
#include "pdm/fault.h"
#include "pdm/geometry.h"
#include "pdm/io_executor.h"
#include "pdm/io_stats.h"

namespace emcgm::pdm {

/// One block's worth of a parallel read: destination buffer for addr.
struct ReadSlot {
  BlockAddr addr;
  std::span<std::byte> out;  ///< exactly block_bytes
};

/// One block's worth of a parallel write: source data for addr.
struct WriteSlot {
  BlockAddr addr;
  std::span<const std::byte> data;  ///< exactly block_bytes
};

/// Completion ticket of an async parallel op (the op's sequence number).
/// Waiting on a ticket waits on every op submitted before it too.
using IoTicket = std::uint64_t;

/// DiskArrayOptions.io_threads value asking for min(D, hw_concurrency).
inline constexpr std::uint32_t kIoThreadsAuto = 0xFFFFFFFFu;

/// Arbitration probe: called once per parallel op at submission, with the
/// number of blocks the op moves, from whichever thread submits it (the
/// engine's host workers under use_threads — the sink must be thread-safe).
/// This is what a fair-share scheduler (src/svc/) charges its deficit
/// round-robin accounts with: blocks are the PDM cost unit, and submission
/// order is deterministic, so the charge stream is too. Counted work, never
/// wall time — arbitration decisions stay bit-reproducible.
using IoChargeFn = std::function<void(std::uint64_t blocks)>;

/// Fault-tolerance and execution configuration of one disk array.
struct DiskArrayOptions {
  /// Wrap every physical block in a CRC32C envelope (checksum.h) and verify
  /// it on read; corruption surfaces as IoError(kCorruption). The backend
  /// must be built with physical_geometry(logical, true).
  bool checksums = false;
  /// Retry schedule for IoError(kTransient) block faults.
  RetryPolicy retry{};
  /// Async I/O worker threads: 0 = serial path (the default; byte-identical
  /// legacy behavior), kIoThreadsAuto = min(D, hw_concurrency), otherwise
  /// clamped to [1, D]. Workers own disks round-robin (disk d -> worker
  /// d mod W).
  std::uint32_t io_threads = 0;
  /// Observability sink for the executor's in-flight block count; called on
  /// every submit/completion from submitter and worker threads (serialized
  /// by the executor's completion lock, but the sink must be thread-safe).
  IoExecutor::DepthFn on_queue_depth;
  /// Per-op block-count charge probe (see IoChargeFn); empty = detached.
  IoChargeFn on_charge;
};

class DiskArray {
 public:
  /// `backend` carries the *physical* geometry: when opts.checksums is on,
  /// its block size must be the logical block size + kEnvelopeBytes (use
  /// physical_geometry()); geometry()/block_bytes() expose the logical view
  /// to the layers above.
  explicit DiskArray(std::unique_ptr<StorageBackend> backend,
                     DiskArrayOptions opts = {});
  ~DiskArray();

  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  const DiskGeometry& geometry() const { return geom_; }
  std::uint32_t num_disks() const { return geometry().num_disks; }
  std::size_t block_bytes() const { return geometry().block_bytes; }

  /// One parallel read of 1..D blocks, at most one per disk. Counts as a
  /// single I/O operation regardless of how many disks participate
  /// (paper §6.2: "An operation involving fewer elements incurs the same
  /// cost"). In async mode, waits for this op (and every prior one).
  void parallel_read(std::span<const ReadSlot> slots);

  /// One parallel write of 1..D blocks, at most one per disk. In async mode
  /// this is write-behind: it returns after submission, and any error
  /// surfaces at the next wait/drain/sync with canonical ordering.
  void parallel_write(std::span<const WriteSlot> slots);

  /// Async submission (prefetch pipelines). In serial mode these execute
  /// immediately and the returned ticket is already complete. The read
  /// buffers must stay alive until wait(ticket) returns; write payloads are
  /// copied.
  IoTicket parallel_read_async(std::span<const ReadSlot> slots);
  IoTicket parallel_write_async(std::span<const WriteSlot> slots);

  /// Wait until every op up to `ticket` is complete and its stats reaped.
  /// Rethrows the canonically-first pending error, if any.
  void wait(IoTicket ticket) const;

  /// Completion barrier: wait for everything submitted so far.
  void drain() const;

  /// True when the async executor is on (io_threads resolved to >= 1).
  bool async() const { return exec_ != nullptr; }

  /// Blocks currently submitted but not yet reaped (0 in serial mode and at
  /// every quiesce point). The chaos invariant layer asserts this is 0 at
  /// superstep barriers — write-behind must never leak across a commit.
  std::uint64_t in_flight() const;

  /// Set the per-disk capacity quota in bytes (0 = unlimited); forwarded to
  /// the backend, which enforces it on every materializing write with a
  /// typed IoError(kNoSpace). Quotas count physical bytes (checksum
  /// envelope included). Drains first so the quota change lands between
  /// parallel ops, exactly as it would serially.
  void set_quota_bytes(std::uint64_t quota) {
    drain();
    backend_->set_disk_quota_bytes(quota);
  }
  std::uint64_t quota_bytes() const { return backend_->disk_quota_bytes(); }

  /// Flush every completed write to durable storage (backend fsync; no-op
  /// for MemoryBackend). Counted in stats().fsyncs either way, so tests can
  /// assert the durability protocol without a real filesystem. Drains the
  /// executor first: fsync-before-declare needs the writes submitted.
  void sync() {
    drain();
    backend_->sync();
    ++stats_.fsyncs;
  }

  /// Counters reaped so far. Exact at quiesce points (after wait/drain/sync
  /// or in serial mode); while async ops are in flight, op-level counters
  /// lag submission and per-block counters may run ahead.
  const IoStats& stats() const { return stats_; }
  void reset_stats() {
    drain();
    stats_ = IoStats{};
  }

  /// Space usage: the sum over the disks of each disk's high-water track
  /// count (highest written track + 1, StorageBackend::tracks_used) — the
  /// quota's unit, not resident bytes. Drains first so pending write-behind
  /// extensions are visible.
  std::uint64_t tracks_used() const;

  StorageBackend& backend() { return *backend_; }
  const DiskArrayOptions& options() const { return opts_; }

  /// (Re-)attach the per-op charge probe after construction (the job
  /// service installs per-tenant accounts on engines it did not build).
  /// Must not be called while ops are being submitted concurrently.
  void set_charge_hook(IoChargeFn fn) { opts_.on_charge = std::move(fn); }

  /// The fault injector wrapping the backend, or nullptr if none.
  FaultInjectingBackend* fault_injector() { return injector_; }

 private:
  void validate_batch_disks(std::size_t count,
                            const std::uint64_t disk_mask) const;
  void pre_submit();
  void read_one(const ReadSlot& slot);
  void write_one(const WriteSlot& slot);
  void backoff(std::uint32_t retry) const;

  std::unique_ptr<StorageBackend> backend_;
  DiskArrayOptions opts_;
  DiskGeometry geom_;  ///< logical geometry (envelope stripped)
  std::vector<std::byte> scratch_;  ///< physical-block staging (serial path)
  IoExecutor::SleepFn sleep_fn_;    ///< every backoff routes through this
  FaultInjectingBackend* injector_ = nullptr;
  std::unique_ptr<IoExecutor> exec_;  ///< null = serial path
  mutable IoStats stats_;  ///< mutable: reaped from const wait/drain
};

/// Build a DiskArray with the whole fault-tolerance stack in one call: a
/// base backend with the right physical geometry, optionally wrapped in a
/// FaultInjectingBackend, under the given checksum/retry options. `logical`
/// is the geometry the layers above will see.
std::unique_ptr<DiskArray> make_disk_array(BackendKind kind,
                                           const DiskGeometry& logical,
                                           const std::string& file_dir,
                                           const DiskArrayOptions& opts = {},
                                           const FaultPlan& plan = {});

}  // namespace emcgm::pdm
