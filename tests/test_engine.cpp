// Engine-level properties: native/EM equivalence, context and message
// stores, staggered message placement (Fig. 2, Lemma 3), the
// memory-residency check, and the headline O(N/(pDB)) I/O linearity of the
// simulated sort.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "algo/sort.h"
#include "cgm/machine.h"
#include "cgm/native_engine.h"
#include "emcgm/context_store.h"
#include "emcgm/em_engine.h"
#include "emcgm/message_store.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

pdm::DiskArray make_array(std::uint32_t D, std::size_t B) {
  return pdm::DiskArray(
      std::make_unique<pdm::MemoryBackend>(pdm::DiskGeometry{D, B}));
}

std::vector<std::byte> blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 13 + seed) & 0xFF);
  }
  return v;
}

}  // namespace

// ----------------------------------------------------------- ContextStore --

TEST(ContextStore, RoundTripsVaryingSizes) {
  auto a = make_array(4, 128);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 3);
  for (int step = 0; step < 5; ++step) {
    std::vector<std::vector<std::byte>> ctxs;
    for (std::uint32_t j = 0; j < 3; ++j) {
      ctxs.push_back(blob(17 + 97 * j * (step + 1), static_cast<std::uint8_t>(step * 3 + j)));
      store.write(j, ctxs.back());
    }
    store.flip();
    for (std::uint32_t j = 0; j < 3; ++j) {
      EXPECT_EQ(store.read(j), ctxs[j]) << "step " << step << " proc " << j;
    }
  }
}

TEST(ContextStore, FlipRequiresAllWritten) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 2);
  store.write(0, blob(10, 1));
  EXPECT_THROW(store.flip(), Error);
}

TEST(ContextStore, DoubleWriteRejected) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 2);
  store.write(0, blob(10, 1));
  EXPECT_THROW(store.write(0, blob(10, 2)), Error);
}

TEST(ContextStore, StripedIoIsFullyParallel) {
  const std::uint32_t D = 4;
  auto a = make_array(D, 64);
  pdm::TrackSpace space;
  em::ContextStore store(a, space, 1);
  const std::size_t bytes = 64 * 12;  // 12 blocks = 3 fully-striped writes
  store.write(0, blob(bytes, 7));
  EXPECT_EQ(a.stats().write_ops, 3u);
  EXPECT_EQ(a.stats().full_stripe_ops, 3u);
  store.flip();
  store.read(0);
  EXPECT_EQ(a.stats().read_ops, 3u);
}

// ----------------------------------------------------------- MessageStore --

TEST(MessageStore, DeliversAcrossSupersteps) {
  auto a = make_array(4, 64);
  pdm::TrackSpace space;
  em::MessageStore store(a, space, 0, 4);

  std::vector<cgm::Message> batch;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t d = 0; d < 4; ++d) {
      batch.push_back(cgm::Message{s, d, blob(30 + 40 * s + d, static_cast<std::uint8_t>(s * 4 + d))});
    }
  }
  store.write_messages(batch);
  store.flip();
  for (std::uint32_t d = 0; d < 4; ++d) {
    auto in = store.read_incoming(d);
    ASSERT_EQ(in.size(), 4u);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(in[s].src, s);
      EXPECT_EQ(in[s].payload, blob(30 + 40 * s + d, static_cast<std::uint8_t>(s * 4 + d)));
    }
  }
}

TEST(MessageStore, EmptyAndConsumedInboxes) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::MessageStore store(a, space, 0, 2);
  EXPECT_TRUE(store.read_incoming(0).empty());
  std::vector<cgm::Message> batch{cgm::Message{0, 1, blob(20, 9)}};
  store.write_messages(batch);
  store.flip();
  EXPECT_EQ(store.read_incoming(1).size(), 1u);
  EXPECT_TRUE(store.read_incoming(1).empty());  // consumed
}

TEST(MessageStore, RejectsNonLocalDestination) {
  auto a = make_array(2, 64);
  pdm::TrackSpace space;
  em::MessageStore store(a, space, 2, 2);
  std::vector<cgm::Message> batch{cgm::Message{0, 0, blob(8, 1)}};
  EXPECT_THROW(store.write_messages(batch), Error);
}

namespace {

/// The local destinations [local_base, local_base + nlocal) of a store.
struct Group {
  std::uint32_t v, local_base, nlocal;
};

/// A one-block message from every source in [0, g.v) to every local
/// destination, as one src-sorted batch (a p > 1 arrival batch) or split
/// into one outbox per source.
std::vector<std::vector<cgm::Message>> one_block_all_to_all(
    const Group& g, std::size_t B, bool per_source) {
  std::vector<std::vector<cgm::Message>> batches(1);
  for (std::uint32_t s = 0; s < g.v; ++s) {
    if (per_source && s > 0) batches.emplace_back();
    for (std::uint32_t d = g.local_base; d < g.local_base + g.nlocal; ++d) {
      batches.back().push_back(
          cgm::Message{s, d, blob(B, static_cast<std::uint8_t>(s * 31 + d))});
    }
  }
  return batches;
}

/// A store's saved directory.
std::vector<std::byte> directory(const em::MessageStore& store) {
  WriteArchive ar;
  store.save(ar);
  return ar.take();
}

/// Read every local inbox; each must return its v messages in source
/// order and cost ceil(v/D) parallel read ops (Lemma 3).
void expect_inboxes_fully_parallel(em::MessageStore& store,
                                   pdm::DiskArray& a, const Group& g) {
  const std::uint64_t want = ceil_div(g.v, a.num_disks());
  for (std::uint32_t d = g.local_base; d < g.local_base + g.nlocal; ++d) {
    const std::uint64_t before = a.stats().read_ops;
    auto in = store.read_incoming(d);
    EXPECT_EQ(a.stats().read_ops - before, want) << "inbox " << d;
    ASSERT_EQ(in.size(), g.v);
    for (std::uint32_t s = 0; s < g.v; ++s) {
      EXPECT_EQ(in[s].src, s);
      EXPECT_EQ(in[s].payload,
                blob(a.block_bytes(), static_cast<std::uint8_t>(s * 31 + d)));
    }
  }
}

}  // namespace

TEST(MessageStore, OutboxInboxesReadInCeilVOverDOps) {
  // p = 1: every source writes its own outbox of one-block messages. The
  // caller's destination order would put (s, d) on disk d mod D for every
  // s; the stored layout must spread each inbox over all D disks.
  for (std::uint32_t v : {8u, 10u}) {
    auto a = make_array(4, 64);
    pdm::TrackSpace space;
    const Group g{v, 0, v};
    em::MessageStore store(a, space, g.local_base, g.nlocal);
    for (const auto& outbox : one_block_all_to_all(g, 64, true)) {
      store.write_messages(outbox);
    }
    store.flip();
    SCOPED_TRACE(v);
    expect_inboxes_fully_parallel(store, a, g);
  }
}

TEST(MessageStore, ArrivalBatchInboxesReadInCeilVOverDOps) {
  // p > 1: one src-sorted arrival batch carries every source's messages to
  // this group's nlocal < v destinations.
  for (std::uint32_t v : {8u, 10u}) {
    auto a = make_array(4, 64);
    pdm::TrackSpace space;
    const Group g{v, v - 4, 4};
    em::MessageStore store(a, space, g.local_base, g.nlocal);
    store.write_messages(one_block_all_to_all(g, 64, false).front());
    store.flip();
    SCOPED_TRACE(v);
    expect_inboxes_fully_parallel(store, a, g);
  }
}

TEST(MessageStore, PlacementLimitHoldsAcrossDisksAndGroups) {
  // The limit message_store.h states for one-block all-to-all traffic:
  // every inbox reads in at most ceil(v/D) + 2 parallel ops, and in exactly
  // ceil(v/D) at D = 2 and 4. Swept over D in 2..8, v <= 24 and every group
  // size nlocal dividing v — per-source outboxes when nlocal = v (p = 1),
  // one arrival batch per group otherwise (p = v / nlocal).
  const std::size_t B = 64;
  for (std::uint32_t D = 2; D <= 8; ++D) {
    for (std::uint32_t v = 1; v <= 24; ++v) {
      const std::uint64_t ideal = ceil_div(v, D);
      const std::uint64_t bound = D == 2 || D == 4 ? ideal : ideal + 2;
      for (std::uint32_t nlocal = 1; nlocal <= v; ++nlocal) {
        if (v % nlocal != 0) continue;
        for (std::uint32_t base = 0; base < v; base += nlocal) {
          auto a = make_array(D, B);
          pdm::TrackSpace space;
          const Group g{v, base, nlocal};
          em::MessageStore store(a, space, base, nlocal);
          for (const auto& batch : one_block_all_to_all(g, B, nlocal == v)) {
            store.write_messages(batch);
          }
          store.flip();
          for (std::uint32_t d = base; d < base + nlocal; ++d) {
            const std::uint64_t before = a.stats().read_ops;
            ASSERT_EQ(store.read_incoming(d).size(), v);
            const std::uint64_t ops = a.stats().read_ops - before;
            ASSERT_LE(ops, bound) << "D=" << D << " v=" << v << " nlocal="
                                  << nlocal << " inbox " << d;
            ASSERT_GE(ops, ideal);
          }
        }
      }
    }
  }
}

TEST(MessageStore, ReplayAfterMidSuperstepSavePlacesIdentically) {
  // Recovery restores a saved directory into a fresh store and replays the
  // rest of the superstep; the replay must place every message exactly as
  // the uninterrupted run did, or the directory and the disks disagree.
  // Every pair carries one message of up to 8 blocks and one of at most
  // B/2 bytes, so each source's blob is shared by packed entries whose
  // reader counts the restored store must rebuild.
  const std::uint32_t v = 6;
  std::vector<std::vector<cgm::Message>> outboxes(v);
  for (std::uint32_t s = 0; s < v; ++s) {
    for (std::uint32_t d = 0; d < v; ++d) {
      outboxes[s].push_back(cgm::Message{
          s, d,
          blob(1 + (37 * s + 53 * d) % (64 * 8),
               static_cast<std::uint8_t>(s * 7 + d))});
      outboxes[s].push_back(cgm::Message{
          s, d,
          blob(1 + (5 * s + 3 * d) % 32,
               static_cast<std::uint8_t>(s * 11 + d))});
    }
  }
  auto expect_inboxes = [&](em::MessageStore& store) {
    for (std::uint32_t d = 0; d < v; ++d) {
      auto in_msgs = store.read_incoming(d);
      ASSERT_EQ(in_msgs.size(), 2 * v);
      for (std::uint32_t s = 0; s < v; ++s) {
        EXPECT_EQ(in_msgs[2 * s].payload, outboxes[s][2 * d].payload);
        EXPECT_EQ(in_msgs[2 * s + 1].payload, outboxes[s][2 * d + 1].payload);
      }
    }
    EXPECT_EQ(store.shared_blocks_live(), 0u);
  };

  auto ua = make_array(4, 64);
  pdm::TrackSpace uspace;
  em::MessageStore uninterrupted(ua, uspace, 0, v);
  for (const auto& o : outboxes) uninterrupted.write_messages(o);

  auto a = make_array(4, 64);
  pdm::TrackSpace first_space;
  auto first = std::make_unique<em::MessageStore>(a, first_space, 0, v);
  for (std::uint32_t s = 0; s < v / 2; ++s) first->write_messages(outboxes[s]);
  const auto snap = directory(*first);
  first.reset();

  pdm::TrackSpace replay_space;
  em::MessageStore replay(a, replay_space, 0, v);
  ReadArchive in(snap);
  replay.load(in);
  for (std::uint32_t s = v / 2; s < v; ++s) replay.write_messages(outboxes[s]);
  EXPECT_EQ(directory(replay), directory(uninterrupted));

  // Replaying the read side: a superstep that consumed half the inboxes
  // (and buffered their shared blocks) restarts from the boundary record.
  replay.flip();
  const auto boundary = directory(replay);
  for (std::uint32_t d = 0; d < v / 2; ++d) replay.read_incoming(d);
  ReadArchive at_boundary(boundary);
  replay.load(at_boundary);
  const std::uint64_t before = a.stats().blocks_read;
  expect_inboxes(replay);
  uninterrupted.flip();
  const std::uint64_t ubefore = ua.stats().blocks_read;
  expect_inboxes(uninterrupted);
  EXPECT_EQ(a.stats().blocks_read - before, ua.stats().blocks_read - ubefore);
}

TEST(MessageStore, PackedRoundTripIsByteExact) {
  // Sizes around the packing threshold B/2: empty messages are not stored,
  // 1..B/2 bytes pack into the source's blob (with 90 packed bytes per
  // source, some message straddles a block boundary), B/2 + 1 and up keep
  // aligned extents. Nine messages over four destinations repeat (src,
  // dst) pairs, which must arrive in program order whichever path each
  // message took.
  const std::size_t B = 64;
  const std::uint32_t v = 4;
  const std::vector<std::size_t> sizes = {0,  1,         B / 2, B / 2 + 1, 20,
                                          30, 3 * B + 5, 7,     B};
  auto a = make_array(4, B);
  pdm::TrackSpace space;
  em::MessageStore store(a, space, 0, v);
  for (std::uint32_t step = 0; step < 2; ++step) {
    std::vector<std::vector<std::vector<std::byte>>> want(v);  // [dst]
    std::uint64_t want_blocks = 0;
    const std::uint64_t written_before = a.stats().blocks_written;
    for (std::uint32_t s = 0; s < v; ++s) {
      std::vector<cgm::Message> outbox;
      std::uint64_t packed = 0;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::uint32_t d = (s + static_cast<std::uint32_t>(i)) % v;
        outbox.push_back(cgm::Message{
            s, d,
            blob(sizes[i], static_cast<std::uint8_t>(step * 97 + s * 13 + i))});
        if (sizes[i] == 0) continue;
        want[d].push_back(outbox.back().payload);
        if (2 * sizes[i] <= B) {
          packed += sizes[i];
        } else {
          want_blocks += ceil_div(sizes[i], B);
        }
      }
      want_blocks += ceil_div(packed, B);
      store.write_messages(outbox);
    }
    EXPECT_EQ(a.stats().blocks_written - written_before, want_blocks);
    store.flip();
    for (std::uint32_t d = 0; d < v; ++d) {
      const auto in = store.read_incoming(d);
      ASSERT_EQ(in.size(), want[d].size()) << "inbox " << d;
      for (std::size_t k = 0; k < in.size(); ++k) {
        EXPECT_EQ(in[k].dst, d);
        EXPECT_EQ(in[k].payload, want[d][k]) << "inbox " << d << " #" << k;
      }
    }
    EXPECT_EQ(store.shared_blocks_live(), 0u);
  }
}

TEST(MessageStore, PackedBlocksAreReadOncePerSuperstep) {
  // v = 16 per-source outboxes (p = 1) of quarter-block messages at D = 4:
  // each source's blob is one full stripe. Every packed block is read
  // exactly once per superstep and each inbox in at most ceil(v/D) ops —
  // the rotated blob order starts each source's share of an inbox on a
  // different disk, where an ascending order would put all sixteen on one.
  const std::uint32_t v = 16, D = 4;
  const std::size_t B = 64;
  auto a = make_array(D, B);
  pdm::TrackSpace space;
  em::MessageStore store(a, space, 0, v);
  for (std::uint32_t step = 0; step < 2; ++step) {
    const pdm::IoStats start = a.stats();
    for (std::uint32_t s = 0; s < v; ++s) {
      std::vector<cgm::Message> outbox;
      for (std::uint32_t d = 0; d < v; ++d) {
        outbox.push_back(cgm::Message{
            s, d, blob(B / 4, static_cast<std::uint8_t>(step + s * 31 + d))});
      }
      store.write_messages(outbox);
    }
    const std::uint64_t written =
        a.stats().blocks_written - start.blocks_written;
    EXPECT_EQ(written, v * v / 4);
    store.flip();
    for (std::uint32_t d = 0; d < v; ++d) {
      const std::uint64_t before = a.stats().read_ops;
      const auto in = store.read_incoming(d);
      EXPECT_LE(a.stats().read_ops - before, ceil_div(v, D)) << "inbox " << d;
      ASSERT_EQ(in.size(), v);
      for (std::uint32_t s = 0; s < v; ++s) {
        EXPECT_EQ(in[s].payload,
                  blob(B / 4, static_cast<std::uint8_t>(step + s * 31 + d)));
      }
      EXPECT_LE(store.shared_blocks_live(), 2 * v);
    }
    EXPECT_EQ(a.stats().blocks_read - start.blocks_read, written);
    EXPECT_EQ(store.shared_blocks_live(), 0u);
  }
}

TEST(MessageStore, AscendingReadsKeepTwoSharedBlocksPerSource) {
  // One source's blob, read back inbox by inbox in ascending local order:
  // the read and unread messages meet at no more than two points of the
  // rotated blob, so at most two of its blocks are buffered at once.
  const std::uint32_t v = 16;
  const std::size_t B = 64;
  for (std::uint32_t s = 0; s < v; ++s) {
    auto a = make_array(4, B);
    pdm::TrackSpace space;
    em::MessageStore store(a, space, 0, v);
    std::vector<cgm::Message> outbox;
    for (std::uint32_t d = 0; d < v; ++d) {
      outbox.push_back(cgm::Message{
          s, d, blob(1 + (s * 7 + d * 5) % 32, static_cast<std::uint8_t>(d))});
    }
    store.write_messages(outbox);
    store.flip();
    std::size_t peak = 0;
    for (std::uint32_t d = 0; d < v; ++d) {
      const auto in = store.read_incoming(d);
      ASSERT_EQ(in.size(), 1u);
      EXPECT_EQ(in[0].payload, outbox[d].payload);
      peak = std::max(peak, store.shared_blocks_live());
    }
    EXPECT_LE(peak, 2u) << "source " << s;
    EXPECT_EQ(store.shared_blocks_live(), 0u);
    EXPECT_EQ(a.stats().blocks_read, a.stats().blocks_written);
  }
}

TEST(MessageStore, AsyncPrefetchMatchesSerialStoreAndStats) {
  // The engine's overlap pattern — read one inbox, then prefetch the next
  // two — with the shared blocks arriving on executor threads. Directory,
  // payloads and every counter must equal the serial store's, including a
  // superstep that ends with a prefetched inbox left unread.
  const std::uint32_t v = 12;
  struct Result {
    std::vector<std::vector<std::byte>> directories;
    std::vector<std::vector<cgm::Message>> inboxes;
    pdm::IoStats io;
  };
  auto run = [&](std::uint32_t io_threads) {
    pdm::DiskArrayOptions opts;
    opts.io_threads = io_threads;
    pdm::DiskArray a(
        std::make_unique<pdm::MemoryBackend>(pdm::DiskGeometry{4, 64}), opts);
    pdm::TrackSpace space;
    em::MessageStore store(a, space, 0, v);
    Result r;
    for (std::uint32_t step = 0; step < 3; ++step) {
      for (std::uint32_t s = 0; s < v; ++s) {
        std::vector<cgm::Message> outbox;
        for (std::uint32_t d = 0; d < v; ++d) {
          outbox.push_back(cgm::Message{
              s, d,
              blob((s * 11 + d * 7 + step * 5) % 80,
                   static_cast<std::uint8_t>(step * 3 + s * 5 + d))});
        }
        store.write_messages(outbox);
      }
      r.directories.push_back(directory(store));
      store.flip();
      const std::uint32_t last = step == 1 ? v - 1 : v;
      for (std::uint32_t d = 0; d < last; ++d) {
        r.inboxes.push_back(store.read_incoming(d));
        for (std::uint32_t k = d + 1; k <= d + 2 && k < v; ++k) {
          store.prefetch_incoming(k);
        }
      }
    }
    a.drain();
    r.io = a.stats();
    return r;
  };
  const Result serial = run(0);
  const Result async = run(4);
  EXPECT_EQ(async.directories, serial.directories);
  EXPECT_EQ(async.io, serial.io);
  ASSERT_EQ(async.inboxes.size(), serial.inboxes.size());
  for (std::size_t i = 0; i < serial.inboxes.size(); ++i) {
    ASSERT_EQ(async.inboxes[i].size(), serial.inboxes[i].size());
    for (std::size_t k = 0; k < serial.inboxes[i].size(); ++k) {
      EXPECT_EQ(async.inboxes[i][k].src, serial.inboxes[i][k].src);
      EXPECT_EQ(async.inboxes[i][k].payload, serial.inboxes[i][k].payload);
    }
  }
}

TEST(MessageStore, ChainedWritesAreFullyParallel) {
  const std::uint32_t D = 4;
  auto a = make_array(D, 64);
  pdm::TrackSpace space;
  em::MessageStore store(a, space, 0, 4);
  std::vector<cgm::Message> batch;
  for (std::uint32_t d = 0; d < 4; ++d) {
    batch.push_back(cgm::Message{1, d, blob(5 * 64, static_cast<std::uint8_t>(d))});
  }
  store.write_messages(batch);
  EXPECT_EQ(a.stats().write_ops, 5u);  // 20 blocks / 4 disks
}

// ------------------------------------------------------------ EmEngine --

TEST(EmEngine, MemoryLimitEnforced) {
  cgm::MachineConfig cfg;
  cfg.v = 2;
  cfg.memory_bytes = 1024;  // far below what a vproc needs for N=8192
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  auto keys = random_keys(3, 8192);
  EXPECT_THROW(algo::sort_keys(m, keys), Error);
}

TEST(EmEngine, BalancedRoutingDoublesCommSteps) {
  auto run = [&](bool balanced) {
    cgm::MachineConfig cfg;
    cfg.v = 4;
    cfg.balanced_routing = balanced;
    cgm::Machine m(cgm::EngineKind::kEm, cfg);
    algo::sort_keys(m, random_keys(4, 2000));
    return m.total();
  };
  const auto plain = run(false);
  const auto balanced = run(true);
  EXPECT_EQ(plain.app_rounds, balanced.app_rounds);
  EXPECT_EQ(balanced.comm_steps, 2 * plain.comm_steps);
}

TEST(Engines, CommStepsCountEveryRecordedSuperstep) {
  // comm_steps is the number of physical communication supersteps and
  // comm.steps holds one StepComm per such superstep: the two must agree on
  // both engines, raw and balanced (Lemma 2 doubles both).
  for (cgm::EngineKind kind : {cgm::EngineKind::kNative, cgm::EngineKind::kEm}) {
    std::uint64_t raw_steps = 0;
    for (bool balanced : {false, true}) {
      cgm::MachineConfig cfg;
      cfg.v = 4;
      cfg.balanced_routing = balanced;
      cgm::Machine m(kind, cfg);
      algo::sort_keys(m, random_keys(4, 2000));
      const cgm::RunResult& r = m.total();
      EXPECT_GT(r.comm_steps, 0u);
      EXPECT_EQ(r.comm_steps, r.comm.steps.size())
          << (kind == cgm::EngineKind::kEm ? "em" : "native")
          << " balanced=" << balanced;
      if (!balanced) {
        raw_steps = r.comm_steps;
      } else {
        EXPECT_EQ(r.comm_steps, 2 * raw_steps);
      }
    }
  }
}

TEST(EmEngine, FileBackendMatchesMemoryBackend) {
  auto keys = random_keys(5, 3000);
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cgm::Machine mem(cgm::EngineKind::kEm, cfg);
  cfg.backend = pdm::BackendKind::kFile;
  cfg.file_dir = "/tmp/emcgm_engine_test";
  cgm::Machine file(cgm::EngineKind::kEm, cfg);
  EXPECT_EQ(algo::sort_keys(mem, keys), algo::sort_keys(file, keys));
  EXPECT_EQ(mem.total().io.total_ops(), file.total().io.total_ops());
}

TEST(EmEngine, ThreadedMatchesSequential) {
  // use_threads must be invisible in every counted number, not just the
  // output: identical IoStats and identical per-step StepComm between modes,
  // with and without the simulated network.
  auto keys = random_keys(6, 4000);
  for (std::uint32_t p : {2u, 4u}) {
    for (bool net : {false, true}) {
      cgm::MachineConfig cfg;
      cfg.v = 8;
      cfg.p = p;
      cfg.net.enabled = net;
      cgm::Machine seq(cgm::EngineKind::kEm, cfg);
      cfg.use_threads = true;
      cgm::Machine thr(cgm::EngineKind::kEm, cfg);
      EXPECT_EQ(algo::sort_keys(seq, keys), algo::sort_keys(thr, keys))
          << "p=" << p << " net=" << net;
      EXPECT_EQ(seq.total().io, thr.total().io) << "p=" << p << " net=" << net;
      const auto& sc = seq.last_result().comm.steps;
      const auto& tc = thr.last_result().comm.steps;
      ASSERT_EQ(sc.size(), tc.size()) << "p=" << p << " net=" << net;
      for (std::size_t i = 0; i < sc.size(); ++i) {
        EXPECT_EQ(sc[i], tc[i]) << "p=" << p << " net=" << net << " step " << i;
      }
      EXPECT_EQ(seq.last_result().net, thr.last_result().net)
          << "p=" << p << " net=" << net;
    }
  }
}

TEST(EmEngine, MultiProcessorSplitsIoAcrossRealProcs) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 4;
  cfg.disk.num_disks = 2;
  cfg.disk.block_bytes = 256;
  em::EmEngine engine(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  auto keys = random_keys(7, 8192);
  cgm::PartitionSet input;
  input.parts.resize(8);
  for (std::uint32_t j = 0; j < 8; ++j) {
    std::vector<std::uint64_t> part(keys.begin() + j * 1024,
                                    keys.begin() + (j + 1) * 1024);
    input.parts[j] = vec_to_bytes(part);
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(input));
  engine.run(prog, std::move(inputs));
  // Every real processor's disks saw comparable traffic.
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto ops = engine.io_stats(r).total_ops();
    lo = std::min(lo, ops);
    hi = std::max(hi, ops);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LT(static_cast<double>(hi), 1.5 * static_cast<double>(lo));
}

// --------------------------------------------------- headline I/O property --

TEST(IoComplexity, SortOpsLinearInN) {
  // Invariant 6 of DESIGN.md: measured parallel I/O ops / (N/(DB)) bounded
  // by a constant across an N sweep — the log factor is gone.
  const std::uint32_t D = 4;
  const std::size_t B = 1024;
  const std::size_t items_per_block = B / sizeof(std::uint64_t);
  double prev_ratio = 0;
  for (std::size_t n : {1u << 14, 1u << 15, 1u << 16, 1u << 17}) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.disk.num_disks = D;
    cfg.disk.block_bytes = B;
    cgm::Machine m(cgm::EngineKind::kEm, cfg);
    auto keys = random_keys(100 + n, n);
    auto sorted = algo::sort_keys(m, keys);
    ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
    const double stream = static_cast<double>(n) / items_per_block / D;
    const double ratio = static_cast<double>(m.total().io.total_ops()) / stream;
    EXPECT_LT(ratio, 40.0) << "n=" << n;
    if (prev_ratio > 0) {
      EXPECT_LT(ratio, prev_ratio * 1.3)
          << "ratio must not grow with N (n=" << n << ")";
    }
    prev_ratio = ratio;
  }
}

TEST(IoComplexity, MoreDisksFewerOps) {
  const std::size_t n = 1u << 16;
  auto keys = random_keys(11, n);
  std::uint64_t prev = ~0ull;
  for (std::uint32_t D : {1u, 2u, 4u, 8u}) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.disk.num_disks = D;
    cfg.disk.block_bytes = 512;
    cgm::Machine m(cgm::EngineKind::kEm, cfg);
    algo::sort_keys(m, keys);
    const auto ops = m.total().io.total_ops();
    EXPECT_LT(ops, prev) << "D=" << D;
    prev = ops;
  }
}

// ------------------------------------------------------- engine equivalence --

TEST(Equivalence, SortAllConfigsAgree) {
  auto keys = random_keys(12, 6000);
  cgm::MachineConfig base;
  base.v = 6;
  cgm::Machine native(cgm::EngineKind::kNative, base);
  const auto want = algo::sort_keys(native, keys);

  for (bool balanced : {false, true}) {
    for (std::uint32_t p : {1u, 2u, 3u}) {
      cgm::MachineConfig cfg = base;
      cfg.p = p;
      cfg.balanced_routing = balanced;
      // p > 1 configs also sweep threaded hosts; both modes must agree with
      // the native engine and with each other on every counted I/O and
      // communication total.
      std::optional<pdm::IoStats> serial_io;
      std::optional<std::uint64_t> serial_comm;
      for (bool threads : {false, true}) {
        if (threads && p == 1) continue;
        cfg.use_threads = threads;
        cgm::Machine m(cgm::EngineKind::kEm, cfg);
        EXPECT_EQ(algo::sort_keys(m, keys), want)
            << "balanced=" << balanced << " p=" << p
            << " threads=" << threads;
        if (!threads) {
          serial_io = m.total().io;
          serial_comm = m.total().comm.total_bytes();
        } else {
          EXPECT_EQ(m.total().io, *serial_io)
              << "balanced=" << balanced << " p=" << p;
          EXPECT_EQ(m.total().comm.total_bytes(), *serial_comm)
              << "balanced=" << balanced << " p=" << p;
        }
      }
    }
  }
}

TEST(EmEngine, PerSuperstepIoTraceSumsToTotal) {
  cgm::MachineConfig cfg;
  cfg.v = 8;
  cfg.p = 2;
  cfg.balanced_routing = true;
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  algo::sort_keys(m, random_keys(21, 4096));
  const auto& res = m.last_result();
  ASSERT_FALSE(res.io_per_step.empty());
  pdm::IoStats sum;
  for (const auto& s : res.io_per_step) sum += s;
  EXPECT_EQ(sum, res.io);
  // Every computation superstep moved data (contexts at minimum).
  std::size_t nonzero = 0;
  for (const auto& s : res.io_per_step) {
    if (s.total_ops() > 0) ++nonzero;
  }
  EXPECT_GE(nonzero, res.app_rounds);
}
