#include "emcgm/message_store.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"
#include "util/math.h"

namespace emcgm::em {

namespace {

/// The side-wide logical block index (stripe cursor position) of an
/// extent's first block.
std::uint64_t first_block(const pdm::Extent& e, std::uint32_t D) {
  return e.start_track * D + e.start_disk;
}

/// Block `i` of a pool of block-sized buffers, growing the pool to hold
/// it. A buffer never moves, so spans into it stay valid as the pool grows.
std::byte* pool_block(std::vector<std::unique_ptr<std::byte[]>>& pool,
                      std::size_t i, std::size_t B) {
  while (pool.size() <= i) {
    pool.push_back(std::make_unique_for_overwrite<std::byte[]>(B));
  }
  return pool[i].get();
}

}  // namespace

MessageStore::MessageStore(pdm::DiskArray& array, pdm::TrackSpace& space,
                           std::uint32_t local_base, std::uint32_t nlocal)
    : array_(array),
      local_base_(local_base),
      nlocal_(nlocal),
      sides_{Side(space, array.num_disks(), nlocal),
             Side(space, array.num_disks(), nlocal)},
      prefetched_(nlocal) {}

void MessageStore::write_messages(std::span<const cgm::Message> msgs) {
  Side& w = sides_[1 - active_];
  const std::size_t B = array_.block_bytes();
  const std::uint32_t D = array_.num_disks();
  // Extents come from one bump cursor, so the blocks of the whole batch
  // are stripe-consecutive and FIFO batching yields ceil(total/D) ops.
  // Only the order in which a source's messages take the cursor is free:
  // that order decides which disks each destination's inbox lands on.
  // Padded tails and blob blocks are staged in the store's pool of block
  // buffers, which the next batch reuses.
  write_slots_.clear();
  std::size_t staged = 0;
  auto push_slot = [&](const pdm::Extent& e, std::uint64_t q,
                       const std::byte* data) {
    pdm::BlockAddr a = e.addr(D, q);
    a.track = w.tracks.physical_track(a.track);
    write_slots_.push_back(
        pdm::WriteSlot{a, std::span<const std::byte>(data, B)});
  };
  // A staged block holding `n` bytes of `src`, zero-padded.
  auto stage = [&](const std::byte* src, std::size_t n) {
    std::byte* block = pool_block(stage_, staged++, B);
    if (n > 0) std::memcpy(block, src, n);
    std::memset(block + n, 0, B - n);
    return block;
  };
  for (std::size_t i = 0; i < msgs.size();) {
    const std::uint32_t src = msgs[i].src;
    run_.clear();
    small_.clear();
    large_.clear();
    for (; i < msgs.size() && msgs[i].src == src; ++i) {
      check_local(msgs[i].dst);
      if (msgs[i].payload.empty()) continue;
      (2 * msgs[i].payload.size() <= B ? small_ : large_)
          .push_back(run_.size());
      run_.push_back(i);
    }
    placed_.assign(run_.size(), Entry{});
    const std::uint32_t rot = src % nlocal_;
    auto dloc_of = [&](std::size_t k) {
      return msgs[run_[k]].dst - local_base_;
    };
    auto rank = [&](std::size_t k) {
      return (dloc_of(k) + nlocal_ - rot) % nlocal_;
    };
    while (!large_.empty()) {
      // Staggered placement (paper Fig. 2): the next extent goes to the
      // message whose destination ends with the lowest per-disk block
      // peak; ties go to the rotated order, which alone staggers
      // equal-sized messages across the disks. Keying on each message's
      // own src staggers p = 1 outboxes and p > 1 arrival batches alike.
      const auto start = static_cast<std::uint32_t>(
          w.cursor.blocks_allocated() % D);
      std::size_t best = 0;
      std::uint64_t best_peak = 0;
      std::uint32_t best_rank = 0;
      for (std::size_t j = 0; j < large_.size(); ++j) {
        const std::uint64_t peak = w.peak_after(
            dloc_of(large_[j]), start,
            ceil_div(msgs[run_[large_[j]]].payload.size(), B));
        const std::uint32_t r = rank(large_[j]);
        if (j == 0 || peak < best_peak ||
            (peak == best_peak && r < best_rank)) {
          best = j;
          best_peak = peak;
          best_rank = r;
        }
      }
      const std::size_t k = large_[best];
      large_.erase(large_.begin() + static_cast<std::ptrdiff_t>(best));
      const auto& payload = msgs[run_[k]].payload;
      const pdm::Extent e = w.cursor.alloc(payload.size(), B);
      placed_[k] = Entry{src, e, 0, payload.size()};
      w.add_load(dloc_of(k), placed_[k], B);
      const std::uint64_t blocks = e.blocks(B);
      for (std::uint64_t q = 0; q < blocks; ++q) {
        const std::size_t off = static_cast<std::size_t>(q) * B;
        const std::byte* data = payload.data() + off;
        push_slot(e, q,
                  off + B <= payload.size()
                      ? data
                      : stage(data, payload.size() - off));
      }
    }
    if (!small_.empty()) {
      // Packing: messages of at most B/2 bytes go back to back into one
      // blob after the run's aligned extents, in the rotated destination
      // order starting at dloc = src mod nlocal — each source's blob starts
      // each inbox's share at a different offset, so shared blocks spread
      // over the disks. Equal ranks keep program order.
      std::sort(small_.begin(), small_.end(),
                [&](std::size_t x, std::size_t y) {
                  const std::uint32_t rx = rank(x), ry = rank(y);
                  return rx != ry ? rx < ry : x < y;
                });
      std::uint64_t total = 0;
      for (std::size_t k : small_) total += msgs[run_[k]].payload.size();
      const pdm::Extent blob = w.cursor.alloc(total, B);
      const std::size_t first = staged;
      for (std::uint64_t q = 0; q < blob.blocks(B); ++q) {
        push_slot(blob, q, stage(nullptr, 0));
      }
      std::uint64_t off = 0;
      for (std::size_t k : small_) {
        const auto& payload = msgs[run_[k]].payload;
        placed_[k] = Entry{src, blob, off, payload.size()};
        w.add_load(dloc_of(k), placed_[k], B);
        w.add_readers(placed_[k], B);
        for (std::size_t done = 0; done < payload.size();) {
          const std::size_t in_block = static_cast<std::size_t>(off % B);
          const std::size_t n = std::min(B - in_block, payload.size() - done);
          std::memcpy(stage_[first + off / B].get() + in_block,
                      payload.data() + done, n);
          done += n;
          off += n;
        }
      }
    }
    // Directory entries in program order, whatever the placement order,
    // so repeated (src, dst) pairs arrive as they were sent.
    for (std::size_t k = 0; k < run_.size(); ++k) {
      w.by_dst[dloc_of(k)].push_back(placed_[k]);
    }
  }
  if (!write_slots_.empty()) pdm::fifo_write(array_, write_slots_);
}

std::vector<cgm::Message> MessageStore::read_incoming(
    std::uint32_t dst_global) {
  check_local(dst_global);
  const std::uint32_t dloc = dst_global - local_base_;
  if (!prefetched_[dloc].has_value()) prefetch_incoming(dst_global);
  PrefetchedInbox pf = std::move(*prefetched_[dloc]);
  prefetched_[dloc].reset();
  array_.wait(pf.ticket);

  Side& r = sides_[active_];
  const std::size_t B = array_.block_bytes();
  const std::uint32_t D = array_.num_disks();
  std::vector<cgm::Message> out;
  out.reserve(pf.pending.size());
  for (auto& p : pf.pending) {
    const Entry& en = p.entry;
    if (en.packed()) {
      const std::uint64_t g0 = first_block(en.ext, D);
      for (std::uint64_t q = en.off / B; q <= (en.off + en.len - 1) / B;
           ++q) {
        SharedBlock& sb = r.shared[g0 + q];
        EMCGM_ASSERT(sb.slot != kNoSlot && sb.readers > 0);
        // A block another inbox's prefetch filled waits on that read.
        if (slot_ticket_[sb.slot] > pf.ticket) {
          array_.wait(slot_ticket_[sb.slot]);
        }
        const std::uint64_t lo = std::max<std::uint64_t>(en.off, q * B);
        const std::uint64_t hi =
            std::min<std::uint64_t>(en.off + en.len, (q + 1) * B);
        std::memcpy(p.buf.data() + (lo - en.off),
                    arena_[sb.slot].get() + (lo - q * B), hi - lo);
        if (--sb.readers == 0) {
          free_slots_.push_back(sb.slot);
          sb.slot = kNoSlot;
        }
      }
    } else {
      p.buf.resize(static_cast<std::size_t>(en.len));
    }
    out.push_back(cgm::Message{en.src, dst_global, std::move(p.buf)});
  }
  // Entries are in write order; a stable sort keeps each source's
  // messages in program order.
  const auto by_src = [](const cgm::Message& a, const cgm::Message& b) {
    return a.src < b.src;
  };
  if (!std::is_sorted(out.begin(), out.end(), by_src)) {
    std::stable_sort(out.begin(), out.end(), by_src);
  }
  return out;
}

void MessageStore::prefetch_incoming(std::uint32_t dst_global) {
  check_local(dst_global);
  const std::uint32_t dloc = dst_global - local_base_;
  if (prefetched_[dloc].has_value()) return;
  Side& r = sides_[active_];
  auto& entries = r.by_dst[dloc];
  const std::size_t B = array_.block_bytes();
  const std::uint32_t D = array_.num_disks();

  PrefetchedInbox pf;
  pf.pending.resize(entries.size());
  read_slots_.clear();
  filled_.clear();
  auto push_slot = [&](const pdm::Extent& e, std::uint64_t q,
                       std::byte* buf) {
    pdm::BlockAddr a = e.addr(D, q);
    a.track = r.tracks.physical_track(a.track);
    read_slots_.push_back(pdm::ReadSlot{a, std::span<std::byte>(buf, B)});
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& en = entries[i];
    PendingMsg& p = pf.pending[i];
    p.entry = en;
    if (!en.packed()) {
      const std::uint64_t blocks = en.ext.blocks(B);
      p.buf.resize(blocks * B);
      for (std::uint64_t q = 0; q < blocks; ++q) {
        push_slot(en.ext, q, p.buf.data() + q * B);
      }
      continue;
    }
    // A packed message touches at most two blocks; each is read only by
    // the first inbox that needs it and stays buffered for the rest.
    p.buf.resize(static_cast<std::size_t>(en.len));
    const std::uint64_t g0 = first_block(en.ext, D);
    for (std::uint64_t q = en.off / B; q <= (en.off + en.len - 1) / B; ++q) {
      EMCGM_CHECK_MSG(
          g0 + q < r.shared.size() && r.shared[g0 + q].readers > 0,
          "packed block " << g0 + q << " has no readers left");
      SharedBlock& sb = r.shared[g0 + q];
      if (sb.slot != kNoSlot) continue;
      if (free_slots_.empty()) {
        free_slots_.push_back(static_cast<std::uint32_t>(arena_.size()));
        pool_block(arena_, arena_.size(), B);
        slot_ticket_.push_back(0);
      }
      sb.slot = free_slots_.back();
      free_slots_.pop_back();
      filled_.push_back(sb.slot);
      push_slot(en.ext, q, arena_[sb.slot].get());
    }
  }
  if (!read_slots_.empty()) {
    pf.ticket = pdm::greedy_read_async(array_, read_slots_);
  }
  for (std::uint32_t s : filled_) slot_ticket_[s] = pf.ticket;
  entries.clear();
  prefetched_[dloc] = std::move(pf);
}

void MessageStore::flip() {
  drop_prefetches();
  active_ = 1 - active_;
  Side& w = sides_[1 - active_];
  w.cursor.reset();
  w.clear();
}

void MessageStore::save(WriteArchive& ar) const {
  ar.put<std::uint8_t>(static_cast<std::uint8_t>(active_));
  for (const Side& s : sides_) {
    ar.put<std::uint64_t>(s.cursor.blocks_allocated());
    ar.put<std::uint64_t>(s.by_dst.size());
    for (const auto& entries : s.by_dst) {
      ar.put<std::uint64_t>(entries.size());
      for (const Entry& e : entries) {
        ar.put<std::uint32_t>(e.src);
        ar.put<std::uint32_t>(e.ext.start_disk);
        ar.put<std::uint64_t>(e.ext.start_track);
        ar.put<std::uint64_t>(e.ext.bytes);
        ar.put<std::uint64_t>(e.off);
        ar.put<std::uint64_t>(e.len);
      }
    }
  }
}

void MessageStore::load(ReadArchive& ar) {
  drop_prefetches();
  active_ = ar.get<std::uint8_t>();
  EMCGM_CHECK(active_ == 0 || active_ == 1);
  const std::size_t B = array_.block_bytes();
  for (Side& s : sides_) {
    s.clear();
    s.cursor.restore(ar.get<std::uint64_t>());
    const auto ndst = ar.get<std::uint64_t>();
    EMCGM_CHECK_MSG(ndst == s.by_dst.size(),
                    "message snapshot has wrong destination count");
    for (auto& entries : s.by_dst) {
      const auto n = ar.get<std::uint64_t>();
      entries.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        Entry e;
        e.src = ar.get<std::uint32_t>();
        e.ext.start_disk = ar.get<std::uint32_t>();
        e.ext.start_track = ar.get<std::uint64_t>();
        e.ext.bytes = ar.get<std::uint64_t>();
        e.off = ar.get<std::uint64_t>();
        e.len = ar.get<std::uint64_t>();
        EMCGM_CHECK_MSG(e.len > 0 && e.off + e.len <= e.ext.bytes &&
                            (!e.packed() || 2 * e.len <= B),
                        "message snapshot has a malformed entry");
        entries.push_back(e);
      }
    }
    // The per-disk loads and the shared blocks' reader counts are derived
    // state: rebuilding them from the restored entries makes a replayed
    // superstep place, and read each shared block, exactly as the original
    // run did.
    for (std::uint32_t dloc = 0; dloc < nlocal_; ++dloc) {
      for (const Entry& e : s.by_dst[dloc]) s.add_load(dloc, e, B);
    }
    for (const auto& entries : s.by_dst) {
      for (const Entry& e : entries) s.add_readers(e, B);
    }
  }
}

MessageStore::Side::Side(pdm::TrackSpace& space, std::uint32_t D,
                         std::uint32_t nlocal)
    : tracks(space),
      cursor(D),
      by_dst(nlocal),
      D(D),
      load(static_cast<std::size_t>(nlocal) * D, 0),
      peak(nlocal, 0) {}

/// dloc's per-disk peak if a `blocks`-block extent started on disk `start`:
/// every disk gains blocks / D, the next blocks % D disks one more.
std::uint64_t MessageStore::Side::peak_after(std::uint32_t dloc,
                                             std::uint32_t start,
                                             std::uint64_t blocks) const {
  const std::uint64_t* l = &load[static_cast<std::size_t>(dloc) * D];
  std::uint64_t top = peak[dloc];
  for (std::uint64_t q = 0; q < blocks % D; ++q) {
    top = std::max(top, l[(start + q) % D] + 1);
  }
  return top + blocks / D;
}

/// An aligned entry loads every block of its extent; a packed one every
/// block its bytes touch.
void MessageStore::Side::add_load(std::uint32_t dloc, const Entry& e,
                                  std::size_t B) {
  std::uint64_t* l = &load[static_cast<std::size_t>(dloc) * D];
  if (e.packed()) {
    for (std::uint64_t q = e.off / B; q <= (e.off + e.len - 1) / B; ++q) {
      const std::uint64_t n = ++l[(e.ext.start_disk + q) % D];
      peak[dloc] = std::max(peak[dloc], n);
    }
    return;
  }
  const std::uint64_t blocks = e.ext.blocks(B);
  peak[dloc] = peak_after(dloc, e.ext.start_disk, blocks);
  for (std::uint32_t k = 0; k < D; ++k) l[k] += blocks / D;
  for (std::uint64_t q = 0; q < blocks % D; ++q) {
    ++l[(e.ext.start_disk + q) % D];
  }
}

void MessageStore::Side::add_readers(const Entry& e, std::size_t B) {
  if (!e.packed()) return;
  const std::uint64_t g0 = first_block(e.ext, D);
  const std::uint64_t last = (e.off + e.len - 1) / B;
  if (shared.size() <= g0 + last) {
    shared.resize(static_cast<std::size_t>(g0 + last + 1));
  }
  for (std::uint64_t q = e.off / B; q <= last; ++q) ++shared[g0 + q].readers;
}

void MessageStore::Side::clear() {
  for (auto& d : by_dst) d.clear();
  std::fill(load.begin(), load.end(), 0);
  std::fill(peak.begin(), peak.end(), 0);
  shared.clear();
}

void MessageStore::drop_prefetches() {
  for (auto& pf : prefetched_) {
    if (pf.has_value()) {
      array_.wait(pf->ticket);  // reads target pf->pending buffers
      pf.reset();
    }
  }
  // Every shared-block read was issued by some prefetch, waited on above.
  free_slots_.clear();
  for (std::size_t s = arena_.size(); s-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
}

void MessageStore::check_local(std::uint32_t dst) const {
  EMCGM_CHECK_MSG(dst >= local_base_ && dst < local_base_ + nlocal_,
                  "message for non-local destination " << dst);
}

}  // namespace emcgm::em
