// On-disk storage for the messages of a compound superstep (paper Algorithm
// 2, steps (b)/(d)). A store holds the messages addressed to the virtual
// processors local to one real processor.
//
// Messages are striped extents bump-allocated into a double-buffered region
// with an in-memory O(v^2/p) directory, so arbitrary (unbalanced) message
// sizes need no a-priori slot bound. Writes are fully parallel: one seamless
// stripe cursor serves a whole batch. Within each source's run of a batch:
//
// - Small messages (at most B/2 bytes: the largest size at which two of them
//   always fit one block) are packed back to back into one blob extent
//   after the run's larger messages, in the rotated destination order that
//   starts at src mod nlocal. A directory entry names its message by byte
//   offset and length inside the blob. Below the paper's Lemma 2 regime
//   (N >= v^2 B + v^2 (v-1)/2) most messages are this small; packing stops
//   each one costing a whole block written and a whole block read.
// - Larger messages keep their own block-aligned extents, placed staggered
//   (Fig. 2, Lemma 3): the next extent goes to the message whose
//   destination then has the lowest per-disk block peak, ties going to the
//   same rotated order. Under one-block all-to-all traffic an inbox reads
//   in ceil(v/D) parallel ops at D = 2 and 4, and at most ceil(v/D) + 2 at
//   other D, where the greedy choice cannot look ahead.
//
// A block shared by packed messages is read once per superstep: the first
// inbox that needs it reads it into a small buffer, and its last reader
// frees it. Reading inboxes in ascending local order keeps at most two such
// blocks per source blob buffered between reads.
#pragma once

#include <cstdint>
#include <memory>
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
  /// the last flip(). Returns them sorted by source, each source's in the
  /// order they were written. Empty messages are not stored.
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

  /// Serialize the store's directory state (active side, cursors and
  /// directory entries) for a superstep commit record; the message bytes
  /// stay on disk. load() restores a state saved at a superstep boundary —
  /// including re-arming inboxes consumed by a half-finished superstep, so
  /// recovery can replay the superstep deterministically.
  void save(WriteArchive& ar) const;
  void load(ReadArchive& ar);

  /// Shared blocks currently buffered: read for some inbox, still needed by
  /// another one not yet read.
  std::size_t shared_blocks_live() const {
    return arena_.size() - free_slots_.size();
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One message: bytes [off, off + len) of extent `ext`. An aligned
  /// message owns its extent (off = 0, len = ext.bytes); a packed one
  /// shares its source's blob extent with the rest of the blob.
  struct Entry {
    std::uint32_t src = 0;
    pdm::Extent ext;
    std::uint64_t off = 0;
    std::uint64_t len = 0;

    bool packed() const { return len != ext.bytes; }
  };
  /// Per logical block of a side, for blocks holding packed messages.
  struct SharedBlock {
    std::uint32_t readers = 0;     // entries still to read the block
    std::uint32_t slot = kNoSlot;  // arena slot while buffered
  };
  struct Side {
    pdm::TrackRegion tracks;
    pdm::StripeCursor cursor;
    std::vector<std::vector<Entry>> by_dst;
    std::uint32_t D;
    std::vector<std::uint64_t> load;  // [dloc * D + disk] blocks written
    std::vector<std::uint64_t> peak;  // [dloc] max over disks of load
    std::vector<SharedBlock> shared;  // [logical block] of packed blocks

    Side(pdm::TrackSpace& space, std::uint32_t D, std::uint32_t nlocal);
    std::uint64_t peak_after(std::uint32_t dloc, std::uint32_t start,
                             std::uint64_t blocks) const;
    void add_load(std::uint32_t dloc, const Entry& e, std::size_t B);
    void add_readers(const Entry& e, std::size_t B);
    void clear();
  };
  struct PendingMsg {
    Entry entry;
    std::vector<std::byte> buf;  // aligned: whole blocks; packed: len bytes
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

  // Shared-block arena: one block-sized buffer per slot, reused across
  // supersteps (a buffer never moves while a read into it is in flight).
  std::vector<std::unique_ptr<std::byte[]>> arena_;
  std::vector<pdm::IoTicket> slot_ticket_;  // read that fills each slot
  std::vector<std::uint32_t> free_slots_;

  // Scratch reused across calls, so the write and read paths do not
  // allocate once warm.
  std::vector<std::unique_ptr<std::byte[]>> stage_;  // tails, blob blocks
  std::vector<pdm::WriteSlot> write_slots_;
  std::vector<std::size_t> run_, small_, large_;
  std::vector<Entry> placed_;  // per run position
  std::vector<pdm::ReadSlot> read_slots_;
  std::vector<std::uint32_t> filled_;  // slots a prefetch fills
};

}  // namespace emcgm::em
