#include "emcgm/message_store.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"
#include "util/math.h"

namespace emcgm::em {

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
  std::vector<std::vector<std::byte>> padded;
  std::vector<pdm::WriteSlot> slots;
  std::vector<const cgm::Message*> run;
  for (std::size_t i = 0; i < msgs.size();) {
    const std::uint32_t src = msgs[i].src;
    run.clear();
    for (; i < msgs.size() && msgs[i].src == src; ++i) {
      check_local(msgs[i].dst);
      if (!msgs[i].payload.empty()) run.push_back(&msgs[i]);
    }
    const std::uint32_t rot = src % nlocal_;
    while (!run.empty()) {
      // Staggered placement (paper Fig. 2): the next extent goes to the
      // message whose destination ends with the lowest per-disk block
      // peak; ties go to the rotated order starting at dloc = src mod
      // nlocal, which alone staggers equal-sized messages across the
      // disks. Keying on each message's own src staggers p = 1 outboxes
      // and p > 1 arrival batches alike.
      const auto start = static_cast<std::uint32_t>(
          w.cursor.blocks_allocated() % D);
      std::size_t best = 0;
      std::uint64_t best_peak = 0;
      std::uint32_t best_rank = 0;
      for (std::size_t j = 0; j < run.size(); ++j) {
        const std::uint32_t dloc = run[j]->dst - local_base_;
        const std::uint64_t peak =
            w.peak_after(dloc, start, ceil_div(run[j]->payload.size(), B));
        const std::uint32_t rank = (dloc + nlocal_ - rot) % nlocal_;
        if (j == 0 || peak < best_peak ||
            (peak == best_peak && rank < best_rank)) {
          best = j;
          best_peak = peak;
          best_rank = rank;
        }
      }
      const cgm::Message& m = *run[best];
      run.erase(run.begin() + static_cast<std::ptrdiff_t>(best));
      const std::uint32_t dloc = m.dst - local_base_;
      pdm::Extent e = w.cursor.alloc(m.payload.size(), B);
      w.add_load(dloc, e, B);
      const std::uint64_t blocks = e.blocks(B);
      for (std::uint64_t q = 0; q < blocks; ++q) {
        pdm::BlockAddr a = e.addr(D, q);
        a.track = w.tracks.physical_track(a.track);
        const std::size_t off = static_cast<std::size_t>(q) * B;
        if (off + B <= m.payload.size()) {
          slots.push_back(pdm::WriteSlot{
              a, std::span<const std::byte>(m.payload.data() + off, B)});
        } else {
          padded.emplace_back(B);
          std::memcpy(padded.back().data(), m.payload.data() + off,
                      m.payload.size() - off);
          slots.push_back(
              pdm::WriteSlot{a, std::span<const std::byte>(padded.back())});
        }
      }
      w.by_dst[dloc].push_back(Entry{m.src, e});
    }
  }
  if (!slots.empty()) pdm::fifo_write(array_, slots);
}

std::vector<cgm::Message> MessageStore::read_incoming(
    std::uint32_t dst_global) {
  check_local(dst_global);
  const std::uint32_t dloc = dst_global - local_base_;
  if (!prefetched_[dloc].has_value()) prefetch_incoming(dst_global);
  PrefetchedInbox pf = std::move(*prefetched_[dloc]);
  prefetched_[dloc].reset();
  array_.wait(pf.ticket);

  std::vector<cgm::Message> out;
  out.reserve(pf.pending.size());
  for (auto& p : pf.pending) {
    p.buf.resize(static_cast<std::size_t>(p.bytes));
    out.push_back(cgm::Message{p.src, dst_global, std::move(p.buf)});
  }
  std::sort(out.begin(), out.end(),
            [](const cgm::Message& a, const cgm::Message& b) {
              return a.src < b.src;
            });
  return out;
}

void MessageStore::prefetch_incoming(std::uint32_t dst_global) {
  check_local(dst_global);
  const std::uint32_t dloc = dst_global - local_base_;
  if (prefetched_[dloc].has_value()) return;
  Side& r = sides_[active_];
  auto& entries = r.by_dst[dloc];
  const std::size_t B = array_.block_bytes();

  PrefetchedInbox pf;
  std::vector<pdm::ReadSlot> slots;
  for (const auto& en : entries) {
    PendingMsg p;
    p.src = en.src;
    p.bytes = en.ext.bytes;
    p.buf.resize(en.ext.blocks(B) * B);
    pf.pending.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const pdm::Extent& e = entries[i].ext;
    const std::uint64_t blocks = e.blocks(B);
    for (std::uint64_t q = 0; q < blocks; ++q) {
      pdm::BlockAddr a = e.addr(array_.num_disks(), q);
      a.track = r.tracks.physical_track(a.track);
      slots.push_back(pdm::ReadSlot{
          a, std::span<std::byte>(pf.pending[i].buf.data() + q * B, B)});
    }
  }
  if (!slots.empty()) pf.ticket = pdm::greedy_read_async(array_, slots);
  entries.clear();
  prefetched_[dloc] = std::move(pf);
}

void MessageStore::flip() {
  drop_prefetches();
  active_ = 1 - active_;
  Side& w = sides_[1 - active_];
  w.cursor.reset();
  for (auto& d : w.by_dst) d.clear();
  w.clear_load();
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
      }
    }
  }
}

void MessageStore::load(ReadArchive& ar) {
  drop_prefetches();
  active_ = ar.get<std::uint8_t>();
  EMCGM_CHECK(active_ == 0 || active_ == 1);
  for (Side& s : sides_) {
    s.cursor.restore(ar.get<std::uint64_t>());
    const auto ndst = ar.get<std::uint64_t>();
    EMCGM_CHECK_MSG(ndst == s.by_dst.size(),
                    "message snapshot has wrong destination count");
    for (auto& entries : s.by_dst) {
      entries.clear();
      const auto n = ar.get<std::uint64_t>();
      entries.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        Entry e;
        e.src = ar.get<std::uint32_t>();
        e.ext.start_disk = ar.get<std::uint32_t>();
        e.ext.start_track = ar.get<std::uint64_t>();
        e.ext.bytes = ar.get<std::uint64_t>();
        entries.push_back(e);
      }
    }
    // The per-disk loads are derived state: rebuilding them from the
    // restored extents makes a replayed superstep place exactly as the
    // original run did.
    s.clear_load();
    for (std::uint32_t dloc = 0; dloc < nlocal_; ++dloc) {
      for (const Entry& e : s.by_dst[dloc]) {
        s.add_load(dloc, e.ext, array_.block_bytes());
      }
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

void MessageStore::Side::add_load(std::uint32_t dloc, const pdm::Extent& e,
                                  std::size_t B) {
  const std::uint64_t blocks = e.blocks(B);
  peak[dloc] = peak_after(dloc, e.start_disk, blocks);
  std::uint64_t* l = &load[static_cast<std::size_t>(dloc) * D];
  for (std::uint32_t k = 0; k < D; ++k) l[k] += blocks / D;
  for (std::uint64_t q = 0; q < blocks % D; ++q) {
    ++l[(e.start_disk + q) % D];
  }
}

void MessageStore::Side::clear_load() {
  std::fill(load.begin(), load.end(), 0);
  std::fill(peak.begin(), peak.end(), 0);
}

void MessageStore::drop_prefetches() {
  for (auto& pf : prefetched_) {
    if (pf.has_value()) {
      array_.wait(pf->ticket);  // reads target pf->pending buffers
      pf.reset();
    }
  }
}

void MessageStore::check_local(std::uint32_t dst) const {
  EMCGM_CHECK_MSG(dst >= local_base_ && dst < local_base_ + nlocal_,
                  "message for non-local destination " << dst);
}

}  // namespace emcgm::em
