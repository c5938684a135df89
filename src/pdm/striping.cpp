#include "pdm/striping.h"

#include <cstring>

namespace emcgm::pdm {

void write_striped(DiskArray& array, TrackRegion& region, const Extent& e,
                   std::span<const std::byte> data) {
  EMCGM_CHECK(data.size() == e.bytes);
  const std::size_t B = array.block_bytes();
  const std::uint32_t D = array.num_disks();
  const std::uint64_t blocks = e.blocks(B);

  std::vector<std::byte> pad(B);  // zero-padded tail block
  std::vector<WriteSlot> batch;
  batch.reserve(D);

  for (std::uint64_t q = 0; q < blocks; ++q) {
    BlockAddr a = e.addr(D, q);
    a.track = region.physical_track(a.track);

    const std::size_t off = q * B;
    std::span<const std::byte> src;
    if (off + B <= data.size()) {
      src = data.subspan(off, B);
    } else {
      std::memset(pad.data(), 0, B);
      std::memcpy(pad.data(), data.data() + off, data.size() - off);
      src = std::span<const std::byte>(pad);
    }
    batch.push_back(WriteSlot{a, src});

    // Consecutive format guarantees the next D blocks hit D distinct disks,
    // so a batch flushes exactly when it reaches D slots.
    if (batch.size() == D || q + 1 == blocks) {
      array.parallel_write(batch);
      batch.clear();
    }
  }
}

void read_striped(DiskArray& array, TrackRegion& region, const Extent& e,
                  std::span<std::byte> out) {
  EMCGM_CHECK(out.size() == e.bytes);
  const std::size_t B = array.block_bytes();
  const std::uint32_t D = array.num_disks();
  const std::uint64_t blocks = e.blocks(B);

  std::vector<std::byte> tail(B);
  std::vector<ReadSlot> batch;
  batch.reserve(D);
  bool batch_has_tail = false;

  for (std::uint64_t q = 0; q < blocks; ++q) {
    BlockAddr a = e.addr(D, q);
    a.track = region.physical_track(a.track);

    const std::size_t off = q * B;
    if (off + B <= out.size()) {
      batch.push_back(ReadSlot{a, out.subspan(off, B)});
    } else {
      batch.push_back(ReadSlot{a, std::span<std::byte>(tail)});
      batch_has_tail = true;
    }

    if (batch.size() == D || q + 1 == blocks) {
      array.parallel_read(batch);
      if (batch_has_tail) {
        const std::size_t tail_off = (blocks - 1) * B;
        std::memcpy(out.data() + tail_off, tail.data(),
                    out.size() - tail_off);
        batch_has_tail = false;
      }
      batch.clear();
    }
  }
}

IoTicket read_striped_async(DiskArray& array, TrackRegion& region,
                            const Extent& e, std::span<std::byte> out) {
  const std::size_t B = array.block_bytes();
  const std::uint32_t D = array.num_disks();
  const std::uint64_t blocks = e.blocks(B);
  EMCGM_CHECK(out.size() == blocks * B);

  IoTicket last = 0;
  std::vector<ReadSlot> batch;
  batch.reserve(D);
  for (std::uint64_t q = 0; q < blocks; ++q) {
    BlockAddr a = e.addr(D, q);
    a.track = region.physical_track(a.track);
    batch.push_back(ReadSlot{a, out.subspan(q * B, B)});
    if (batch.size() == D || q + 1 == blocks) {
      last = array.parallel_read_async(batch);
      batch.clear();
    }
  }
  return last;
}

namespace {

template <typename Slot, typename IssueFn>
std::uint64_t fifo_batch(std::uint32_t D, std::span<const Slot> slots,
                         IssueFn issue) {
  std::uint64_t ops = 0;
  std::vector<Slot> batch;
  batch.reserve(D);
  std::uint64_t mask = 0;

  auto flush = [&] {
    if (batch.empty()) return;
    issue(std::span<const Slot>(batch));
    batch.clear();
    mask = 0;
    ++ops;
  };

  for (const auto& s : slots) {
    const std::uint64_t bit = 1ULL << s.addr.disk;
    if ((mask & bit) != 0 || batch.size() == D) flush();
    batch.push_back(s);
    mask |= bit;
  }
  flush();
  return ops;
}

}  // namespace

std::uint64_t fifo_write(DiskArray& array, std::span<const WriteSlot> slots) {
  return fifo_batch(array.num_disks(), slots, [&](auto span) {
    array.parallel_write(span);
  });
}

std::uint64_t fifo_read(DiskArray& array, std::span<const ReadSlot> slots) {
  return fifo_batch(array.num_disks(), slots, [&](auto span) {
    array.parallel_read(span);
  });
}

namespace {

template <typename Slot, typename IssueFn>
std::uint64_t greedy_batch(std::uint32_t D, std::span<const Slot> slots,
                           IssueFn issue) {
  // Per-disk queues, drained one block per disk per op.
  std::vector<std::vector<const Slot*>> queues(D);
  for (const auto& s : slots) queues[s.addr.disk].push_back(&s);

  std::uint64_t ops = 0;
  std::vector<std::size_t> next(D, 0);
  std::vector<Slot> batch;
  batch.reserve(D);
  for (;;) {
    batch.clear();
    for (std::uint32_t d = 0; d < D; ++d) {
      if (next[d] < queues[d].size()) batch.push_back(*queues[d][next[d]++]);
    }
    if (batch.empty()) break;
    issue(std::span<const Slot>(batch));
    ++ops;
  }
  return ops;
}

}  // namespace

IoTicket greedy_read_async(DiskArray& array, std::span<const ReadSlot> slots) {
  IoTicket last = 0;
  greedy_batch(array.num_disks(), slots, [&](auto span) {
    last = array.parallel_read_async(span);
  });
  return last;
}

}  // namespace emcgm::pdm
