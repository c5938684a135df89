// On-disk storage for the messages of a compound superstep (paper Algorithm
// 2, steps (b)/(d)). A store holds the messages addressed to the virtual
// processors local to one real processor.
//
// Messages are per-message striped extents bump-allocated into a
// double-buffered region with an in-memory O(v^2/p) directory, so arbitrary
// (unbalanced) message sizes need no a-priori slot bound. Writes are fully
// parallel: one seamless stripe cursor serves a whole batch. Placement is
// staggered (Fig. 2, Lemma 3): within each source's run of a batch, the
// store picks which message takes the cursor next — the one whose
// destination then has the lowest per-disk block peak, ties going to the
// rotated destination order that starts at src mod nlocal. Reading an inbox
// costs its per-disk peak in parallel ops. Under one-block all-to-all
// traffic that is ceil(v/D) at D = 2 and 4, and at most ceil(v/D) + 2 at
// other D, where the greedy choice cannot look ahead.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cgm/message.h"
#include "pdm/disk_array.h"
#include "pdm/striping.h"
#include "util/archive.h"

namespace emcgm::em {

class MessageStore {
 public:
  /// Messages for the `nlocal` virtual processors starting at `local_base`.
  MessageStore(pdm::DiskArray& array, pdm::TrackSpace& space,
               std::uint32_t local_base, std::uint32_t nlocal);

  /// Store messages for delivery in the next superstep. Every msg.dst must
  /// be local to this store. Blocks of the whole batch are batched into
  /// parallel ops together, so callers should pass a virtual processor's
  /// complete outbox (or a whole network arrival batch) at once.
  void write_messages(std::span<const cgm::Message> msgs);

  /// Read and consume the messages addressed to `dst_global` written before
  /// the last flip(). Returns them sorted by source.
  std::vector<cgm::Message> read_incoming(std::uint32_t dst_global);

  /// Start fetching `dst_global`'s inbox asynchronously (double-buffered
  /// prefetch: issued while the previous virtual processor computes); the
  /// next read_incoming(dst_global) then only waits and assembles. Consumes
  /// the directory entries exactly as read_incoming would, so each inbox is
  /// still read once. Idempotent; flip()/load() discard unconsumed
  /// prefetches after quiescing them. Safe against the current superstep's
  /// in-flight writes: reads come from the side written before the last
  /// flip(), writes go to the other side's tracks.
  void prefetch_incoming(std::uint32_t dst_global);

  /// Superstep boundary: messages written since the previous flip become
  /// readable.
  void flip();

  /// Serialize the store's directory state (active side, cursors and extent
  /// chains) for a superstep commit record; the message bytes stay on disk.
  /// load() restores a state saved at a superstep boundary — including
  /// re-arming inboxes consumed by a half-finished superstep, so recovery
  /// can replay the superstep deterministically.
  void save(WriteArchive& ar) const;
  void load(ReadArchive& ar);

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

    Side(pdm::TrackSpace& space, std::uint32_t D, std::uint32_t nlocal);
    std::uint64_t peak_after(std::uint32_t dloc, std::uint32_t start,
                             std::uint64_t blocks) const;
    void add_load(std::uint32_t dloc, const pdm::Extent& e, std::size_t B);
    void clear_load();
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

  void drop_prefetches();
  void check_local(std::uint32_t dst) const;

  pdm::DiskArray& array_;
  std::uint32_t local_base_;
  std::uint32_t nlocal_;
  Side sides_[2];
  int active_ = 0;
  std::vector<std::optional<PrefetchedInbox>> prefetched_;  // per local dst
};

}  // namespace emcgm::em
