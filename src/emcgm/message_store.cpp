#include "emcgm/message_store.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "util/error.h"
#include "util/math.h"

namespace emcgm::em {

namespace {

// ------------------------------------------------------------- Staggered --

class StaggeredMatrixStore final : public MessageStore {
 public:
  StaggeredMatrixStore(pdm::DiskArray& array, pdm::TrackSpace& space,
                       const MessageStoreConfig& cfg)
      : array_(array),
        cfg_(cfg),
        slot_blocks_(ceil_div(cfg.slot_bytes, array.block_bytes())),
        regions_{pdm::TrackRegion(space), pdm::TrackRegion(space)},
        lengths_{std::vector<std::uint64_t>(
                     static_cast<std::size_t>(cfg.v) * cfg.nlocal, 0),
                 std::vector<std::uint64_t>(
                     static_cast<std::size_t>(cfg.v) * cfg.nlocal, 0)},
        freed_(static_cast<std::size_t>(cfg.v) * cfg.nlocal, true),
        prefetched_(cfg.nlocal) {
    EMCGM_CHECK_MSG(cfg_.slot_bytes >= 1,
                    "staggered layout needs a positive slot capacity");
    EMCGM_CHECK(slot_blocks_ >= 1);
    EMCGM_CHECK_MSG(!cfg_.single_copy || cfg_.v == cfg_.nlocal,
                    "Observation-2 single-copy mode requires p == 1 (the"
                    " paper presents it for the sequential simulation)");
  }

  void write_messages(std::span<const cgm::Message> msgs) override {
    const std::size_t B = array_.block_bytes();
    // Gather the used blocks of every message in the batch, then batch them
    // into parallel ops together; the staggered slot starts spread the
    // blocks across the disks (paper Fig. 2).
    std::vector<std::vector<std::byte>> padded;  // owns zero-padded tails
    std::vector<pdm::WriteSlot> slots;
    for (const auto& m : msgs) {
      check_local(m.dst);
      EMCGM_CHECK_MSG(
          m.payload.size() <= cfg_.slot_bytes,
          "message of " << m.payload.size() << " bytes exceeds staggered slot"
                        << " capacity " << cfg_.slot_bytes
                        << "; enable balanced_routing, raise"
                        << " staggered_slot_bytes, or use the chained layout");
      if (m.payload.empty()) continue;
      if (cfg_.single_copy) {
        EMCGM_CHECK_MSG(freed_[phys_slot(write_parity(), m.src,
                                         m.dst - cfg_.local_base)],
                        "Observation-2 overwrite of a live slot");
        freed_[phys_slot(write_parity(), m.src, m.dst - cfg_.local_base)] =
            false;
      }
      auto& len =
          lengths_[writing_side()][lin(m.src, m.dst - cfg_.local_base)];
      EMCGM_CHECK_MSG(len == 0, "pair written twice in one superstep");
      len = m.payload.size();

      const std::uint64_t used = ceil_div(m.payload.size(), B);
      for (std::uint64_t q = 0; q < used; ++q) {
        pdm::BlockAddr a = block_addr(write_parity(), m.src,
                                      m.dst - cfg_.local_base, q);
        const std::size_t off = static_cast<std::size_t>(q) * B;
        if (off + B <= m.payload.size()) {
          slots.push_back(
              pdm::WriteSlot{a, std::span<const std::byte>(
                                    m.payload.data() + off, B)});
        } else {
          padded.emplace_back(B);
          std::memcpy(padded.back().data(), m.payload.data() + off,
                      m.payload.size() - off);
          slots.push_back(pdm::WriteSlot{
              a, std::span<const std::byte>(padded.back())});
        }
      }
    }
    if (!slots.empty()) pdm::greedy_write(array_, slots);
  }

  std::vector<cgm::Message> read_incoming(std::uint32_t dst_global) override {
    check_local(dst_global);
    const std::uint32_t dloc = dst_global - cfg_.local_base;
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
    return out;  // collected in ascending source order already
  }

  void prefetch_incoming(std::uint32_t dst_global) override {
    check_local(dst_global);
    const std::uint32_t dloc = dst_global - cfg_.local_base;
    if (prefetched_[dloc].has_value()) return;
    const std::size_t B = array_.block_bytes();
    const int parity = read_parity();

    PrefetchedInbox pf;
    std::vector<pdm::ReadSlot> slots;
    for (std::uint32_t s = 0; s < cfg_.v; ++s) {
      auto& len = lengths_[reading_side()][lin(s, dloc)];
      if (len == 0) continue;
      PendingMsg p;
      p.src = s;
      p.bytes = len;
      p.buf.resize(ceil_div(len, B) * B);
      pf.pending.push_back(std::move(p));
      len = 0;
      if (cfg_.single_copy) freed_[phys_slot(parity, s, dloc)] = true;
    }
    for (auto& p : pf.pending) {
      const std::uint64_t used = p.buf.size() / B;
      for (std::uint64_t q = 0; q < used; ++q) {
        slots.push_back(pdm::ReadSlot{
            block_addr(parity, p.src, dloc, q),
            std::span<std::byte>(p.buf.data() + q * B, B)});
      }
    }
    if (!slots.empty()) pf.ticket = pdm::greedy_read_async(array_, slots);
    prefetched_[dloc] = std::move(pf);
  }

  void flip() override {
    drop_prefetches();
    ++step_;
  }

  void save(WriteArchive& ar) const override {
    ar.put<std::uint64_t>(step_);
    ar.put_vec(lengths_[0]);
    ar.put_vec(lengths_[1]);
    ar.put<std::uint64_t>(freed_.size());
    for (bool f : freed_) ar.put<std::uint8_t>(f ? 1 : 0);
  }

  void load(ReadArchive& ar) override {
    drop_prefetches();
    step_ = ar.get<std::uint64_t>();
    lengths_[0] = ar.get_vec<std::uint64_t>();
    lengths_[1] = ar.get_vec<std::uint64_t>();
    const std::size_t pairs = static_cast<std::size_t>(cfg_.v) * cfg_.nlocal;
    EMCGM_CHECK_MSG(lengths_[0].size() == pairs && lengths_[1].size() == pairs,
                    "message snapshot has wrong directory shape");
    const auto nf = ar.get<std::uint64_t>();
    EMCGM_CHECK(nf == freed_.size());
    for (std::size_t i = 0; i < freed_.size(); ++i) {
      freed_[i] = ar.get<std::uint8_t>() != 0;
    }
  }

 private:
  /// One source's message being fetched: buffer rounded to whole blocks.
  struct PendingMsg {
    std::uint32_t src = 0;
    std::uint64_t bytes = 0;
    std::vector<std::byte> buf;
  };
  struct PrefetchedInbox {
    std::vector<PendingMsg> pending;
    pdm::IoTicket ticket = 0;
  };

  void drop_prefetches() {
    for (auto& pf : prefetched_) {
      if (pf.has_value()) {
        array_.wait(pf->ticket);  // reads target pf->pending buffers
        pf.reset();
      }
    }
  }

  std::size_t lin(std::uint32_t src, std::uint32_t dloc) const {
    return static_cast<std::size_t>(src) * cfg_.nlocal + dloc;
  }

  void check_local(std::uint32_t dst) const {
    EMCGM_CHECK_MSG(dst >= cfg_.local_base &&
                        dst < cfg_.local_base + cfg_.nlocal,
                    "message for non-local destination " << dst);
  }

  // Which of the two length directories / regions the current writes and
  // reads use. With single_copy both map onto region 0 physically, but the
  // directories still double-buffer.
  int writing_side() const { return step_ & 1; }
  int reading_side() const { return 1 - (step_ & 1); }
  int write_parity() const { return step_ & 1; }
  int read_parity() const { return 1 - (step_ & 1); }

  /// Physical slot identity for the Observation-2 freed-slot check. In
  /// single-copy mode (p == 1, so v == nlocal) destination-major parity 0
  /// places pair (s, d) in band d at in-band slot s, and source-major
  /// parity 1 places it in band s at slot d — virtual processor j's writes
  /// occupy exactly the band-j blocks its own inbox just freed.
  std::size_t phys_slot(int parity, std::uint32_t src,
                        std::uint32_t dloc) const {
    if (parity == 0) return static_cast<std::size_t>(dloc) * cfg_.v + src;
    return static_cast<std::size_t>(src) * cfg_.nlocal + dloc;
  }

  /// Paper Fig. 2 layout: destination d's messages form one consecutive
  /// band of v slots; within band b, slot t's blocks start at cyclic
  /// offset t*b' + (b*b' mod band) so that consecutive bands' slot starts
  /// are staggered across the disks — a source writing one message per
  /// destination lands on rotating disks and achieves fully parallel
  /// writes whenever b' mod D != 0 (the paper's condition), while reads of
  /// one band remain a consecutive run.
  pdm::BlockAddr block_addr(int parity, std::uint32_t src,
                            std::uint32_t dloc, std::uint64_t q) {
    const bool dst_major = !cfg_.single_copy || parity == 0;
    const std::uint64_t band = dst_major ? dloc : src;
    const std::uint64_t t = dst_major ? src : dloc;
    const std::uint64_t slots_per_band = dst_major ? cfg_.v : cfg_.nlocal;
    const std::uint64_t band_blocks = slots_per_band * slot_blocks_;
    const std::uint64_t rot = (band * slot_blocks_) % band_blocks;
    const std::uint64_t inband = (t * slot_blocks_ + q + rot) % band_blocks;
    const std::uint64_t g = band * band_blocks + inband;
    const std::uint32_t D = array_.num_disks();
    pdm::BlockAddr a{static_cast<std::uint32_t>(g % D), g / D};
    pdm::TrackRegion& region =
        cfg_.single_copy ? regions_[0]
                         : regions_[static_cast<std::size_t>(parity)];
    a.track = region.physical_track(a.track);
    return a;
  }

  pdm::DiskArray& array_;
  MessageStoreConfig cfg_;
  std::uint64_t slot_blocks_;
  pdm::TrackRegion regions_[2];
  std::vector<std::uint64_t> lengths_[2];  // [side][src * nlocal + dloc]
  std::vector<bool> freed_;                // single-copy live-slot tracking
  std::uint64_t step_ = 0;
  std::vector<std::optional<PrefetchedInbox>> prefetched_;  // per local dst
};

// --------------------------------------------------------------- Chained --

class ChainedStore final : public MessageStore {
 public:
  ChainedStore(pdm::DiskArray& array, pdm::TrackSpace& space,
               const MessageStoreConfig& cfg)
      : array_(array),
        cfg_(cfg),
        sides_{Side(space, array.num_disks(), cfg.nlocal),
               Side(space, array.num_disks(), cfg.nlocal)},
        prefetched_(cfg.nlocal) {}

  void write_messages(std::span<const cgm::Message> msgs) override {
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
      const std::uint32_t rot = src % cfg_.nlocal;
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
          const std::uint32_t dloc = run[j]->dst - cfg_.local_base;
          const std::uint64_t peak =
              w.peak_after(dloc, start, ceil_div(run[j]->payload.size(), B));
          const std::uint32_t rank = (dloc + cfg_.nlocal - rot) % cfg_.nlocal;
          if (j == 0 || peak < best_peak ||
              (peak == best_peak && rank < best_rank)) {
            best = j;
            best_peak = peak;
            best_rank = rank;
          }
        }
        const cgm::Message& m = *run[best];
        run.erase(run.begin() + static_cast<std::ptrdiff_t>(best));
        const std::uint32_t dloc = m.dst - cfg_.local_base;
        pdm::Extent e = w.cursor.alloc(m.payload.size(), B);
        w.add_load(dloc, e, B);
        const std::uint64_t blocks = e.blocks(B);
        for (std::uint64_t q = 0; q < blocks; ++q) {
          pdm::BlockAddr a = e.addr(D, q);
          a.track = w.tracks.physical_track(a.track);
          const std::size_t off = static_cast<std::size_t>(q) * B;
          if (off + B <= m.payload.size()) {
            slots.push_back(
                pdm::WriteSlot{a, std::span<const std::byte>(
                                      m.payload.data() + off, B)});
          } else {
            padded.emplace_back(B);
            std::memcpy(padded.back().data(), m.payload.data() + off,
                        m.payload.size() - off);
            slots.push_back(pdm::WriteSlot{
                a, std::span<const std::byte>(padded.back())});
          }
        }
        w.by_dst[dloc].push_back(Entry{m.src, e});
      }
    }
    if (!slots.empty()) pdm::fifo_write(array_, slots);
  }

  std::vector<cgm::Message> read_incoming(std::uint32_t dst_global) override {
    check_local(dst_global);
    const std::uint32_t dloc = dst_global - cfg_.local_base;
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

  void prefetch_incoming(std::uint32_t dst_global) override {
    check_local(dst_global);
    const std::uint32_t dloc = dst_global - cfg_.local_base;
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

  void flip() override {
    drop_prefetches();
    active_ = 1 - active_;
    Side& w = sides_[1 - active_];
    w.cursor.reset();
    for (auto& d : w.by_dst) d.clear();
    w.clear_load();
  }

  void save(WriteArchive& ar) const override {
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

  void load(ReadArchive& ar) override {
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
      for (std::uint32_t dloc = 0; dloc < cfg_.nlocal; ++dloc) {
        for (const Entry& e : s.by_dst[dloc]) {
          s.add_load(dloc, e.ext, array_.block_bytes());
        }
      }
    }
  }

 private:
  struct Entry {
    std::uint32_t src;
    pdm::Extent ext;
  };
  struct Side {
    pdm::TrackRegion tracks;
    pdm::StripeCursor cursor;
    std::vector<std::vector<Entry>> by_dst;
    std::uint32_t D;
    std::vector<std::uint64_t> load;  // [dloc * D + disk] blocks written
    std::vector<std::uint64_t> peak;  // [dloc] max over disks of load

    Side(pdm::TrackSpace& space, std::uint32_t D, std::uint32_t nlocal)
        : tracks(space),
          cursor(D),
          by_dst(nlocal),
          D(D),
          load(static_cast<std::size_t>(nlocal) * D, 0),
          peak(nlocal, 0) {}

    /// dloc's per-disk peak if a `blocks`-block extent started on disk
    /// `start`: every disk gains blocks / D, the next blocks % D disks one
    /// more.
    std::uint64_t peak_after(std::uint32_t dloc, std::uint32_t start,
                             std::uint64_t blocks) const {
      const std::uint64_t* l = &load[static_cast<std::size_t>(dloc) * D];
      std::uint64_t top = peak[dloc];
      for (std::uint64_t q = 0; q < blocks % D; ++q) {
        top = std::max(top, l[(start + q) % D] + 1);
      }
      return top + blocks / D;
    }

    void add_load(std::uint32_t dloc, const pdm::Extent& e, std::size_t B) {
      const std::uint64_t blocks = e.blocks(B);
      peak[dloc] = peak_after(dloc, e.start_disk, blocks);
      std::uint64_t* l = &load[static_cast<std::size_t>(dloc) * D];
      for (std::uint32_t k = 0; k < D; ++k) l[k] += blocks / D;
      for (std::uint64_t q = 0; q < blocks % D; ++q) {
        ++l[(e.start_disk + q) % D];
      }
    }

    void clear_load() {
      std::fill(load.begin(), load.end(), 0);
      std::fill(peak.begin(), peak.end(), 0);
    }
  };
  struct PendingMsg {
    std::uint32_t src = 0;
    std::uint64_t bytes = 0;
    std::vector<std::byte> buf;  // rounded up to whole blocks
  };
  struct PrefetchedInbox {
    std::vector<PendingMsg> pending;
    pdm::IoTicket ticket = 0;
  };

  void drop_prefetches() {
    for (auto& pf : prefetched_) {
      if (pf.has_value()) {
        array_.wait(pf->ticket);  // reads target pf->pending buffers
        pf.reset();
      }
    }
  }

  void check_local(std::uint32_t dst) const {
    EMCGM_CHECK_MSG(dst >= cfg_.local_base &&
                        dst < cfg_.local_base + cfg_.nlocal,
                    "message for non-local destination " << dst);
  }

  pdm::DiskArray& array_;
  MessageStoreConfig cfg_;
  Side sides_[2];
  int active_ = 0;
  std::vector<std::optional<PrefetchedInbox>> prefetched_;  // per local dst
};

}  // namespace

std::unique_ptr<MessageStore> make_message_store(
    cgm::MsgLayout layout, pdm::DiskArray& array, pdm::TrackSpace& space,
    const MessageStoreConfig& cfg) {
  switch (layout) {
    case cgm::MsgLayout::kStaggeredMatrix:
      return std::make_unique<StaggeredMatrixStore>(array, space, cfg);
    case cgm::MsgLayout::kChained:
      return std::make_unique<ChainedStore>(array, space, cfg);
  }
  EMCGM_CHECK_MSG(false, "unknown message layout");
  return nullptr;
}

}  // namespace emcgm::em
