#include "pdm/io_executor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "pdm/checksum.h"
#include "pdm/disk_array.h"
#include "pdm/fault.h"

namespace emcgm::pdm {

IoExecutor::IoExecutor(StorageBackend& backend, std::uint32_t num_workers,
                       bool checksums, const RetryPolicy& retry, SleepFn sleep,
                       DepthFn depth)
    : backend_(backend),
      checksums_(checksums),
      retry_(retry),
      sleep_(std::move(sleep)),
      depth_(std::move(depth)) {
  const std::uint32_t D = backend_.geometry().num_disks;
  EMCGM_CHECK_MSG(num_workers >= 1 && num_workers <= D,
                  "executor wants 1.." << D << " workers, got "
                                       << num_workers);
  queues_.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  disk_counters_.reserve(D);
  for (std::uint32_t d = 0; d < D; ++d) {
    disk_counters_.push_back(std::make_unique<DiskCounters>());
  }
  workers_.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { run_worker(w); });
  }
}

IoExecutor::~IoExecutor() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& q : queues_) {
    // Take the queue lock so a worker between its predicate check and its
    // wait cannot miss the notification.
    { std::lock_guard<std::mutex> lk(q->mu); }
    q->cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

std::uint64_t IoExecutor::submit_read(std::span<const ReadSlot> slots) {
  Op* op = nullptr;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    ops_.push_back(std::make_unique<Op>());
    op = ops_.back().get();
    op->seq = seq = next_seq_++;
    op->is_write = false;
    op->blocks = static_cast<std::uint32_t>(slots.size());
    op->full_stripe = slots.size() == backend_.geometry().num_disks;
    op->pending = op->blocks;
    pending_blocks_ += slots.size();
    if (depth_) depth_(pending_blocks_);
  }
  const std::uint32_t W = num_workers();
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    Job job;
    job.op = op;
    job.slot = i;
    job.disk = slots[i].addr.disk;
    job.track = slots[i].addr.track;
    job.is_write = false;
    job.out = slots[i].out;
    auto& q = *queues_[job.disk % W];
    {
      std::lock_guard<std::mutex> lk(q.mu);
      q.jobs.push_back(std::move(job));
    }
    q.cv.notify_one();
  }
  return seq;
}

std::uint64_t IoExecutor::submit_write(std::span<const WriteSlot> slots) {
  Op* op = nullptr;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    ops_.push_back(std::make_unique<Op>());
    op = ops_.back().get();
    op->seq = seq = next_seq_++;
    op->is_write = true;
    op->blocks = static_cast<std::uint32_t>(slots.size());
    op->full_stripe = slots.size() == backend_.geometry().num_disks;
    op->pending = op->blocks;
    pending_blocks_ += slots.size();
    if (depth_) depth_(pending_blocks_);
  }
  const std::uint32_t W = num_workers();
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    Job job;
    job.op = op;
    job.slot = i;
    job.disk = slots[i].addr.disk;
    job.track = slots[i].addr.track;
    job.is_write = true;
    // Write-behind: the caller's buffer may be a stack temporary (striping
    // tail pads, message staging) — own a copy for the job's lifetime.
    job.payload.assign(slots[i].data.begin(), slots[i].data.end());
    auto& q = *queues_[job.disk % W];
    {
      std::lock_guard<std::mutex> lk(q.mu);
      q.jobs.push_back(std::move(job));
    }
    q.cv.notify_one();
  }
  return seq;
}

void IoExecutor::run_worker(std::uint32_t w) {
  auto& q = *queues_[w];
  std::vector<std::byte> scratch(
      checksums_ ? backend_.geometry().block_bytes : 0);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(q.mu);
      q.cv.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) || !q.jobs.empty();
      });
      if (q.jobs.empty()) return;  // stop requested, queue drained
      job = std::move(q.jobs.front());
      q.jobs.pop_front();
    }
    std::exception_ptr err;
    try {
      execute(job, scratch, *disk_counters_[job.disk]);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      // Hand the exception over instead of copying it: the worker must not
      // hold a reference once the lock is released, or it may drop the
      // last one after the reaper rethrew it, destroying the exception on
      // this thread with no happens-before edge the race detector can see.
      if (err) job.op->errors.emplace_back(job.slot, std::move(err));
      --job.op->pending;
      --pending_blocks_;
      if (depth_) depth_(pending_blocks_);
    }
    done_cv_.notify_all();
  }
}

void IoExecutor::execute(Job& job, std::vector<std::byte>& scratch,
                         DiskCounters& counters) {
  if (!job.is_write) {
    // Mirrors the serial DiskArray::read_one retry loop, with the counters
    // redirected into this disk's shard.
    for (std::uint32_t attempt = 1;; ++attempt) {
      try {
        if (!checksums_) {
          backend_.read_block(job.disk, job.track, job.out);
        } else {
          backend_.read_block(job.disk, job.track, scratch);
          unseal_block(job.disk, job.track, scratch, job.out);
        }
        return;
      } catch (const IoError& e) {
        if (e.kind() == IoErrorKind::kCorruption) {
          counters.corruptions.fetch_add(1, std::memory_order_relaxed);
          throw;
        }
        if (e.kind() != IoErrorKind::kTransient) throw;
        if (attempt >= retry_.max_attempts) {
          throw IoError(IoErrorKind::kExhausted,
                        std::string("read gave up after ") +
                            std::to_string(attempt) +
                            " attempts: " + e.what());
        }
        counters.retries.fetch_add(1, std::memory_order_relaxed);
        sleep_(retry_.backoff_us(attempt));
      }
    }
  }
  std::span<const std::byte> phys = job.payload;
  if (checksums_) {
    seal_block(job.disk, job.track, job.payload, scratch);
    phys = scratch;
  }
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      backend_.write_block(job.disk, job.track, phys);
      return;
    } catch (const IoError& e) {
      if (e.kind() != IoErrorKind::kTransient) throw;
      if (attempt >= retry_.max_attempts) {
        throw IoError(IoErrorKind::kExhausted,
                      std::string("write gave up after ") +
                          std::to_string(attempt) + " attempts: " + e.what());
      }
      counters.retries.fetch_add(1, std::memory_order_relaxed);
      sleep_(retry_.backoff_us(attempt));
    }
  }
}

bool IoExecutor::prefix_complete_locked(std::uint64_t ticket) const {
  for (const auto& op : ops_) {
    if (op->seq > ticket) break;
    if (op->pending != 0) return false;
  }
  return true;
}

void IoExecutor::fold_shards_locked(IoStats& stats) {
  std::uint64_t retries = 0, corruptions = 0;
  for (const auto& d : disk_counters_) {
    retries += d->retries.load(std::memory_order_relaxed);
    corruptions += d->corruptions.load(std::memory_order_relaxed);
  }
  stats.retries += retries - folded_retries_;
  stats.corruptions += corruptions - folded_corruptions_;
  folded_retries_ = retries;
  folded_corruptions_ = corruptions;
}

std::exception_ptr IoExecutor::reap_locked(IoStats& stats, bool count_ops) {
  std::exception_ptr first;
  while (!ops_.empty() && ops_.front()->pending == 0) {
    std::unique_ptr<Op> op = std::move(ops_.front());
    ops_.pop_front();
    if (!first && !op->errors.empty()) {
      // Canonically-first failure: smallest slot of the smallest op seq.
      auto it = std::min_element(
          op->errors.begin(), op->errors.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      first = it->second;
    }
    if (!first && count_ops) {
      // Op-level stats in submission order; ops at/after the canonical
      // error are dropped — the serial path would never have reached them.
      if (op->is_write) {
        stats.write_ops += 1;
        stats.blocks_written += op->blocks;
      } else {
        stats.read_ops += 1;
        stats.blocks_read += op->blocks;
      }
      if (op->full_stripe) stats.full_stripe_ops += 1;
    }
  }
  fold_shards_locked(stats);
  return first;
}

void IoExecutor::wait_and_reap(std::uint64_t ticket, IoStats& stats) {
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] { return prefix_complete_locked(ticket); });
    err = reap_locked(stats, /*count_ops=*/true);
    if (err) {
      // Quiesce fully before re-raising so the caller sees a stable array
      // (and the error is cleared for whoever retries). Later ops lose to
      // the canonical first error and are not counted — the serial path
      // would never have reached them.
      done_cv_.wait(lk, [&] { return pending_blocks_ == 0; });
      (void)reap_locked(stats, /*count_ops=*/false);
      ops_.clear();
    }
  }
  if (err) std::rethrow_exception(err);
}

void IoExecutor::wait(std::uint64_t ticket, IoStats& stats) {
  wait_and_reap(ticket, stats);
}

void IoExecutor::drain(IoStats& stats) {
  std::uint64_t last;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    last = next_seq_ - 1;
  }
  wait_and_reap(last, stats);
}

}  // namespace emcgm::pdm
