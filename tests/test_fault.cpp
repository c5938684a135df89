// Fault-tolerance subsystem: CRC32C envelope detection, deterministic fault
// injection, retry policy with exponential backoff, and superstep
// checkpoint/recovery (kill the engine at/inside every compound superstep of
// a multi-round sort, resume(), and demand bit-identical output).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <tuple>

#include "algo/sort.h"
#include "scoped_temp_dir.h"
#include "emcgm/em_engine.h"
#include "pdm/checksum.h"
#include "pdm/disk_array.h"
#include "pdm/fault.h"
#include "util/archive.h"
#include "util/math.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::pdm;

namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + seed) & 0xFF);
  }
  return v;
}

std::unique_ptr<DiskArray> array_with(const FaultPlan& plan,
                                      DiskArrayOptions opts,
                                      std::uint32_t D = 4,
                                      std::size_t B = 128) {
  return make_disk_array(BackendKind::kMemory, DiskGeometry{D, B}, "", opts,
                         plan);
}

void write_one(DiskArray& a, std::uint32_t disk, std::uint64_t track,
               std::span<const std::byte> data) {
  WriteSlot w{BlockAddr{disk, track}, data};
  a.parallel_write(std::span<const WriteSlot>(&w, 1));
}

std::vector<std::byte> read_one(DiskArray& a, std::uint32_t disk,
                                std::uint64_t track) {
  std::vector<std::byte> out(a.block_bytes());
  ReadSlot r{BlockAddr{disk, track}, out};
  a.parallel_read(std::span<const ReadSlot>(&r, 1));
  return out;
}

}  // namespace

// ---------------------------------------------------------------- CRC32C --

TEST(Checksum, Crc32cKnownAnswer) {
  // Standard CRC-32C check value for the ASCII string "123456789".
  const char* s = "123456789";
  const auto bytes = std::as_bytes(std::span<const char>(s, 9));
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
  EXPECT_EQ(crc32c(std::span<const std::byte>{}), 0u);
}

TEST(Checksum, Crc32cRfc3720Vectors) {
  // RFC 3720 §B.4 CRC-32C examples, 32 bytes each.
  std::vector<std::byte> zeros(32, std::byte{0x00});
  std::vector<std::byte> ones(32, std::byte{0xFF});
  std::vector<std::byte> up(32), down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<std::byte>(i);
    down[i] = static_cast<std::byte>(31 - i);
  }
  for (auto fn : {&crc32c, &crc32c_table}) {
    EXPECT_EQ(fn(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(fn(ones, 0), 0x62A8AB43u);
    EXPECT_EQ(fn(up, 0), 0x46DD794Eu);
    EXPECT_EQ(fn(down, 0), 0x113FDB5Cu);
  }
}

TEST(Checksum, DispatchedPathMatchesTable) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  EXPECT_EQ(crc32c_hardware(), __builtin_cpu_supports("sse4.2") != 0);
#endif
  // Every length 0..1024 at every start offset modulo 8 exercises the
  // hardware path's unaligned head, word loop and byte tail.
  const auto buf = pattern(1024 + 8, 17);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::byte> s(buf.data() + off, len);
      ASSERT_EQ(crc32c(s), crc32c_table(s)) << "off " << off << " len " << len;
      ASSERT_EQ(crc32c(s, 0x9E3779B9u), crc32c_table(s, 0x9E3779B9u))
          << "seeded, off " << off << " len " << len;
    }
  }
}

TEST(Checksum, Crc32cChainsOverConcatenation) {
  const auto buf = pattern(777, 5);
  const std::span<const std::byte> all(buf);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{300}, buf.size()}) {
    EXPECT_EQ(crc32c(all.subspan(cut), crc32c(all.first(cut))), crc32c(all))
        << "cut " << cut;
  }
}

TEST(Checksum, SealUnsealRoundTrip) {
  const auto payload = pattern(100, 3);
  std::vector<std::byte> phys(100 + kEnvelopeBytes);
  seal_block(2, 77, payload, phys);
  std::vector<std::byte> out(100);
  unseal_block(2, 77, phys, out);
  EXPECT_EQ(out, payload);
}

TEST(Checksum, DetectsBitRot) {
  const auto payload = pattern(100, 4);
  std::vector<std::byte> phys(100 + kEnvelopeBytes);
  seal_block(0, 5, payload, phys);
  phys[kEnvelopeBytes + 40] ^= std::byte{0x01};
  std::vector<std::byte> out(100);
  try {
    unseal_block(0, 5, phys, out);
    FAIL() << "corruption not detected";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorruption);
  }
}

TEST(Checksum, DetectsMisdirectedBlock) {
  // A block sealed for (0, 5) but fetched from (1, 5) or (0, 6) must fail
  // the address-tag check even though its bytes are intact.
  const auto payload = pattern(64, 5);
  std::vector<std::byte> phys(64 + kEnvelopeBytes);
  seal_block(0, 5, payload, phys);
  std::vector<std::byte> out(64);
  EXPECT_THROW(unseal_block(1, 5, phys, out), IoError);
  EXPECT_THROW(unseal_block(0, 6, phys, out), IoError);
}

TEST(Checksum, SparseBlockUnsealsToZero) {
  std::vector<std::byte> phys(64 + kEnvelopeBytes, std::byte{0});
  std::vector<std::byte> out(64, std::byte{0xFF});
  unseal_block(3, 9, phys, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

// ------------------------------------------------------- fault injection --

TEST(FaultInjection, DeterministicAcrossRuns) {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_write_prob = 0.3;
  plan.transient_read_prob = 0.2;

  auto run_once = [&] {
    DiskArrayOptions opts;
    opts.retry.max_attempts = 50;  // absorb every transient
    auto a = array_with(plan, opts);
    const auto data = pattern(128, 1);
    for (std::uint64_t t = 0; t < 20; ++t) write_one(*a, t % 4, t, data);
    for (std::uint64_t t = 0; t < 20; ++t) read_one(*a, t % 4, t);
    return std::pair{a->stats().retries,
                     a->fault_injector()->counters()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_GT(first.second.transient_writes + first.second.transient_reads, 0u);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(FaultInjection, TransientBurstIsRetriedToSuccess) {
  FaultPlan plan;
  plan.transient_write_at = 3;
  plan.transient_burst = 2;
  DiskArrayOptions opts;
  opts.retry.max_attempts = 3;
  auto a = array_with(plan, opts);
  const auto data = pattern(128, 2);
  for (std::uint64_t t = 0; t < 5; ++t) write_one(*a, 0, t, data);
  EXPECT_EQ(a->stats().retries, 2u);
  EXPECT_EQ(a->fault_injector()->counters().transient_writes, 2u);
  // The retried block landed intact.
  EXPECT_EQ(read_one(*a, 0, 2), data);
}

TEST(FaultInjection, RetryBudgetExhausts) {
  FaultPlan plan;
  plan.transient_read_at = 1;
  plan.transient_burst = 10;
  DiskArrayOptions opts;
  opts.retry.max_attempts = 3;
  auto a = array_with(plan, opts);
  const auto data = pattern(128, 3);
  write_one(*a, 1, 0, data);
  try {
    read_one(*a, 1, 0);
    FAIL() << "expected retry exhaustion";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kExhausted);
  }
  EXPECT_EQ(a->stats().retries, 2u);  // attempts 2 and 3
}

TEST(FaultInjection, BackoffScheduleIsExponential) {
  FaultPlan plan;
  plan.transient_write_at = 1;
  plan.transient_burst = 3;
  DiskArrayOptions opts;
  opts.retry.max_attempts = 4;
  opts.retry.base_backoff_us = 100;
  opts.retry.backoff_multiplier = 2.0;
  opts.retry.max_backoff_us = 350;
  std::vector<std::uint64_t> delays;
  opts.retry.sleep = [&](std::uint64_t us) { delays.push_back(us); };
  auto a = array_with(plan, opts);
  write_one(*a, 0, 0, pattern(128, 4));
  // Retries 1..3 back off 100us, 200us, then min(400, cap 350).
  EXPECT_EQ(delays, (std::vector<std::uint64_t>{100, 200, 350}));
}

TEST(FaultInjection, SilentBitFlipCaughtByChecksum) {
  FaultPlan plan;
  plan.bitflip_write_at = 2;  // triggers fire on the per-disk write index
  DiskArrayOptions opts;
  opts.checksums = true;
  auto a = array_with(plan, opts);
  const auto data = pattern(128, 5);
  write_one(*a, 0, 0, data);  // disk 0 write #1: clean
  write_one(*a, 0, 1, data);  // disk 0 write #2: corrupted at rest
  EXPECT_EQ(read_one(*a, 0, 0), data);
  try {
    read_one(*a, 0, 1);
    FAIL() << "bit flip not detected";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorruption);
  }
  EXPECT_EQ(a->stats().corruptions, 1u);
  EXPECT_EQ(a->fault_injector()->counters().bitflips, 1u);
}

TEST(FaultInjection, SilentBitFlipIsSilentWithoutChecksums) {
  // The motivating failure mode: without the envelope the read "succeeds"
  // and returns wrong bytes.
  FaultPlan plan;
  plan.bitflip_write_at = 1;
  auto a = array_with(plan, DiskArrayOptions{});
  const auto data = pattern(128, 6);
  write_one(*a, 0, 0, data);
  const auto got = read_one(*a, 0, 0);
  EXPECT_NE(got, data);
  EXPECT_EQ(a->stats().corruptions, 0u);
}

TEST(FaultInjection, TornWriteCaughtByChecksum) {
  FaultPlan plan;
  plan.torn_write_at = 1;
  DiskArrayOptions opts;
  opts.checksums = true;
  auto a = array_with(plan, opts);
  write_one(*a, 2, 4, pattern(128, 7));
  try {
    read_one(*a, 2, 4);
    FAIL() << "torn write not detected";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorruption);
  }
  EXPECT_EQ(a->fault_injector()->counters().torn_writes, 1u);
}

TEST(FaultInjection, FailStopCrashAfterKOps) {
  FaultPlan plan;
  plan.crash_after_ops = 3;
  auto a = array_with(plan, DiskArrayOptions{});
  const auto data = pattern(128, 8);
  write_one(*a, 0, 0, data);
  write_one(*a, 1, 0, data);
  write_one(*a, 2, 0, data);
  try {
    write_one(*a, 3, 0, data);
    FAIL() << "expected fail-stop crash";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCrash);
  }
  // The machine stays down until disarmed.
  EXPECT_THROW(read_one(*a, 0, 0), IoError);
  a->fault_injector()->disarm();
  EXPECT_EQ(read_one(*a, 0, 0), data);
}

// ---------------------------------------------------- checkpoint/resume --

namespace {

cgm::MachineConfig ckpt_cfg() {
  cgm::MachineConfig cfg;
  cfg.v = 4;
  cfg.p = 1;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 128;
  cfg.layout = cgm::MsgLayout::kChained;
  cfg.checkpointing = true;
  cfg.checksums = true;
  cfg.seed = 7;
  return cfg;
}

std::vector<std::uint64_t> sort_keys_input(std::size_t n) {
  Rng rng(12345);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_below(1000);  // duplicate-heavy
  return keys;
}

std::vector<cgm::PartitionSet> keyed_inputs(std::uint32_t v,
                                            const std::vector<std::uint64_t>& keys) {
  cgm::PartitionSet set;
  set.parts.resize(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    const auto begin = chunk_begin(keys.size(), v, j);
    const auto count = chunk_size(keys.size(), v, j);
    std::vector<std::uint64_t> part(keys.begin() + begin,
                                    keys.begin() + begin + count);
    set.parts[j] = vec_to_bytes(part);
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(set));
  return inputs;
}

bool same_outputs(const std::vector<cgm::PartitionSet>& a,
                  const std::vector<cgm::PartitionSet>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].parts != b[k].parts) return false;
  }
  return true;
}

}  // namespace

TEST(Checkpoint, CheckpointingDoesNotChangeResults) {
  const auto keys = sort_keys_input(500);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto plain_cfg = ckpt_cfg();
  plain_cfg.checkpointing = false;
  plain_cfg.checksums = false;
  em::EmEngine plain(plain_cfg);
  const auto expected = plain.run(prog, keyed_inputs(4, keys));

  em::EmEngine ckpt(ckpt_cfg());
  const auto got = ckpt.run(prog, keyed_inputs(4, keys));
  EXPECT_TRUE(same_outputs(expected, got));
  EXPECT_TRUE(ckpt.has_checkpoint());
}

// The kill-and-resume sweep runs on both storage backends — MemoryBackend
// (counts only) and FileBackend (real pread/pwrite/fsync under /tmp), so
// recovery is exercised against genuinely persisted bytes too — and across
// io_threads ∈ {0, 2, D}: crash points are op-indexed, so the async
// executor must put every fail-stop at exactly the same place the serial
// path does. Each engine instance gets its own directory — FileBackend
// truncates on open.
class CheckpointSweep
    : public ::testing::TestWithParam<
          std::tuple<pdm::BackendKind, std::uint32_t>> {
 protected:
  cgm::MachineConfig sweep_cfg() {
    auto cfg = ckpt_cfg();
    cfg.backend = std::get<0>(GetParam());
    cfg.io_threads = std::get<1>(GetParam());
    if (cfg.backend == pdm::BackendKind::kFile) {
      dirs_.emplace_back("sweep");
      cfg.file_dir = dirs_.back().path();
    }
    return cfg;
  }

 private:
  std::vector<test::ScopedTempDir> dirs_;
};

TEST_P(CheckpointSweep, ResumeAfterEverySuperstepBoundary) {
  const auto keys = sort_keys_input(800);
  algo::SampleSortProgram<std::uint64_t> prog;

  // Reference: uninterrupted checkpointed run. Its per-step I/O trace gives
  // the parallel-op count at every physical superstep boundary.
  em::EmEngine ref(sweep_cfg());
  const auto expected = ref.run(prog, keyed_inputs(4, keys));
  ASSERT_GT(ref.last_result().app_rounds, 3u) << "need a multi-round sort";
  // Every commit was made durable before being declared committed.
  EXPECT_EQ(ref.io_stats(0).fsyncs, ref.last_result().io_per_step.size());

  // Cross-mode identity: the async executor must be invisible — outputs,
  // totals, and the per-superstep I/O trace all bit-identical to the serial
  // path on the same backend.
  if (std::get<1>(GetParam()) != 0) {
    auto serial_cfg = sweep_cfg();
    serial_cfg.io_threads = 0;
    em::EmEngine serial(serial_cfg);
    const auto serial_out = serial.run(prog, keyed_inputs(4, keys));
    EXPECT_TRUE(same_outputs(serial_out, expected));
    EXPECT_EQ(serial.io_stats(0), ref.io_stats(0));
    ASSERT_EQ(serial.last_result().io_per_step.size(),
              ref.last_result().io_per_step.size());
    for (std::size_t i = 0; i < serial.last_result().io_per_step.size();
         ++i) {
      EXPECT_EQ(serial.last_result().io_per_step[i],
                ref.last_result().io_per_step[i])
          << "superstep " << i;
    }
  }

  std::vector<std::uint64_t> crash_points;
  std::uint64_t cum = 0;
  for (const auto& step : ref.last_result().io_per_step) {
    const std::uint64_t next = cum + step.total_ops();
    crash_points.push_back(cum + 1);            // just after the boundary
    if (step.total_ops() > 2) {
      crash_points.push_back(cum + step.total_ops() / 2);  // mid-superstep
    }
    cum = next;
  }
  crash_points.push_back(cum);  // during output collection / final commit

  int resumed = 0;
  for (const std::uint64_t K : crash_points) {
    auto crash_cfg = sweep_cfg();
    crash_cfg.fault.crash_after_ops = K;
    em::EmEngine e(crash_cfg);
    bool crashed = false;
    std::vector<cgm::PartitionSet> got;
    try {
      got = e.run(prog, keyed_inputs(4, keys));
    } catch (const IoError& err) {
      ASSERT_EQ(err.kind(), IoErrorKind::kCrash) << "K=" << K;
      crashed = true;
    }
    if (!crashed) {
      EXPECT_TRUE(same_outputs(expected, got)) << "K=" << K;
      continue;
    }
    if (!e.has_checkpoint()) continue;  // died before the first commit
    e.disarm_faults();
    got = e.resume(prog);
    ++resumed;
    // Bit-identical: same_outputs compares every partition byte for byte.
    EXPECT_TRUE(same_outputs(expected, got)) << "resumed from K=" << K;
  }
  // The sweep must actually have exercised recovery, at several boundaries.
  EXPECT_GE(resumed, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CheckpointSweep,
    ::testing::Combine(::testing::Values(pdm::BackendKind::kMemory,
                                         pdm::BackendKind::kFile),
                       ::testing::Values(0u, 2u, 4u)),
    [](const auto& info) {
      const char* b = std::get<0>(info.param) == pdm::BackendKind::kMemory
                          ? "Memory"
                          : "File";
      return std::string(b) + "T" + std::to_string(std::get<1>(info.param));
    });

TEST(Checkpoint, ResumeWithBalancedRoutingAndStaggeredMatrix) {
  auto cfg = ckpt_cfg();
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = true;
  const auto keys = sort_keys_input(2000);  // satisfies the Lemma 2 floor
  algo::SampleSortProgram<std::uint64_t> prog;

  em::EmEngine ref(cfg);
  const auto expected = ref.run(prog, keyed_inputs(4, keys));

  // Crash inside an intermediate regroup superstep (balanced routing doubles
  // the physical supersteps, so pick a point past the first app round).
  std::uint64_t cum = 0;
  const auto& steps = ref.last_result().io_per_step;
  ASSERT_GE(steps.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) cum += steps[i].total_ops();

  auto crash_cfg = cfg;
  crash_cfg.fault.crash_after_ops = cum + 1;
  em::EmEngine e(crash_cfg);
  EXPECT_THROW(e.run(prog, keyed_inputs(4, keys)), IoError);
  ASSERT_TRUE(e.has_checkpoint());
  e.disarm_faults();
  const auto got = e.resume(prog);
  EXPECT_TRUE(same_outputs(expected, got));
}

TEST(Checkpoint, ResumeWithMultipleRealProcessors) {
  // Both use_threads modes run the whole crash/resume sweep; the reference
  // outputs and I/O totals must be bit-identical between modes, and every
  // resumed run must reproduce them.
  const auto keys = sort_keys_input(600);
  algo::SampleSortProgram<std::uint64_t> prog;

  std::vector<cgm::PartitionSet> serial_expected;
  std::uint64_t serial_ops = 0;
  for (bool threads : {false, true}) {
    auto cfg = ckpt_cfg();
    cfg.p = 2;
    cfg.use_threads = threads;

    em::EmEngine ref(cfg);
    const auto expected = ref.run(prog, keyed_inputs(4, keys));
    if (!threads) {
      serial_expected = expected;
      serial_ops = ref.last_result().io.total_ops();
    } else {
      EXPECT_TRUE(same_outputs(serial_expected, expected));
      EXPECT_EQ(ref.last_result().io.total_ops(), serial_ops);
    }

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i + 1 < ref.last_result().io_per_step.size();
         ++i) {
      cum += ref.last_result().io_per_step[i].total_ops();
      auto crash_cfg = cfg;
      // Per-proc op counters: halve so the crash lands mid-run on each disk
      // subsystem (both procs do roughly symmetric I/O).
      crash_cfg.fault.crash_after_ops = cum / 2 + 1;
      em::EmEngine e(crash_cfg);
      bool crashed = false;
      try {
        (void)e.run(prog, keyed_inputs(4, keys));
      } catch (const IoError&) {
        crashed = true;
      }
      if (!crashed || !e.has_checkpoint()) continue;
      e.disarm_faults();
      const auto got = e.resume(prog);
      EXPECT_TRUE(same_outputs(expected, got))
          << "boundary " << i << " threads=" << threads;
    }
  }
}

TEST(Checkpoint, ResumeOnFileBackend) {
  test::ScopedTempDir ref_dir("ckpt_file");
  test::ScopedTempDir crash_dir("ckpt_file");
  auto cfg = ckpt_cfg();
  cfg.backend = pdm::BackendKind::kFile;
  cfg.file_dir = ref_dir.path();
  const auto keys = sort_keys_input(400);
  algo::SampleSortProgram<std::uint64_t> prog;

  em::EmEngine ref(cfg);
  const auto expected = ref.run(prog, keyed_inputs(4, keys));

  auto crash_cfg = cfg;
  crash_cfg.file_dir = crash_dir.path();
  crash_cfg.fault.crash_after_ops = 40;
  em::EmEngine e(crash_cfg);
  bool crashed = false;
  try {
    (void)e.run(prog, keyed_inputs(4, keys));
  } catch (const IoError& err) {
    EXPECT_EQ(err.kind(), IoErrorKind::kCrash);
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  ASSERT_TRUE(e.has_checkpoint());
  e.disarm_faults();
  const auto got = e.resume(prog);
  EXPECT_TRUE(same_outputs(expected, got));
}

TEST(Checkpoint, TransientFaultsDuringSortAreAbsorbedByRetries) {
  auto cfg = ckpt_cfg();
  cfg.fault.transient_write_prob = 0.02;
  cfg.fault.transient_read_prob = 0.02;
  cfg.fault.seed = 99;
  cfg.retry.max_attempts = 8;
  const auto keys = sort_keys_input(500);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto clean_cfg = ckpt_cfg();
  em::EmEngine clean(clean_cfg);
  const auto expected = clean.run(prog, keyed_inputs(4, keys));

  em::EmEngine faulty(cfg);
  const auto got = faulty.run(prog, keyed_inputs(4, keys));
  EXPECT_TRUE(same_outputs(expected, got));
  EXPECT_GT(faulty.io_stats(0).retries, 0u);
}

TEST(Checkpoint, RejectsResumeWithoutCheckpointing)
{
  auto cfg = ckpt_cfg();
  cfg.checkpointing = false;
  em::EmEngine e(cfg);
  algo::SampleSortProgram<std::uint64_t> prog;
  EXPECT_THROW(e.resume(prog), Error);
}

TEST(Checkpoint, SingleCopyMatrixIncompatibleWithCheckpointing) {
  auto cfg = ckpt_cfg();
  cfg.layout = cgm::MsgLayout::kStaggeredMatrix;
  cfg.balanced_routing = true;
  cfg.single_copy_matrix = true;
  EXPECT_THROW(cfg.validate(), Error);
}

// ----------------------------------------------- membership (rejoin) sweep --

TEST(MembershipSweep, KillRejoinKillBitIdenticalAcrossModes) {
  // Acceptance sweep for elastic membership: a p=4 sort where proc 1 dies
  // mid-run, rejoins three supersteps later, and proc 2 dies after that.
  // Every (use_threads, io_threads) mode must complete with output
  // bit-identical to the clean run, and the whole membership history —
  // fail-over and rejoin counts, epoch, per-step wire and I/O accounting —
  // must be bit-identical across the modes themselves: the epoch-keyed
  // fault-coin streams make kill -> rejoin -> kill execution-order free.
  const auto keys = sort_keys_input(2000);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto base_cfg = [](bool threads, std::uint32_t io_threads) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 4;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 512;
    cfg.checkpointing = true;
    cfg.net.enabled = true;
    cfg.use_threads = threads;
    cfg.io_threads = io_threads;
    return cfg;
  };
  em::EmEngine ref(base_cfg(false, 0));
  const auto expected = ref.run(prog, keyed_inputs(8, keys));

  struct Probe {
    std::vector<cgm::PartitionSet> out;
    std::uint64_t failovers = 0, rejoins = 0, epoch = 0;
    bool returner_alive = false;
    net::NetStats net;
    std::vector<pdm::IoStats> io_per_step;
    std::vector<cgm::StepComm> comm;
  };
  auto run_mode = [&](bool threads, std::uint32_t io_threads) {
    auto cfg = base_cfg(threads, io_threads);
    cfg.net.failover = true;
    cfg.net.rejoin = true;
    cfg.net.fault.fail_stops = {{1, 2}, {2, 7}};
    cfg.net.fault.rejoins = {{1, 5}};
    em::EmEngine e(cfg);
    Probe pr;
    pr.out = e.run(prog, keyed_inputs(8, keys));
    const auto& r = e.last_result();
    pr.failovers = r.failovers;
    pr.rejoins = r.rejoins;
    pr.epoch = e.membership_epoch();
    pr.returner_alive = e.alive(1);
    pr.net = r.net;
    pr.io_per_step = r.io_per_step;
    pr.comm = r.comm.steps;
    return pr;
  };

  Probe base;
  bool have_base = false;
  for (bool threads : {false, true}) {
    for (std::uint32_t io_threads : {0u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " io_threads=" + std::to_string(io_threads));
      auto pr = run_mode(threads, io_threads);
      EXPECT_TRUE(same_outputs(expected, pr.out));
      EXPECT_GE(pr.failovers, 1u);
      EXPECT_EQ(pr.rejoins, 1u);
      EXPECT_TRUE(pr.returner_alive);
      EXPECT_GE(pr.epoch, 2u);  // at least the death and the rejoin
      if (!have_base) {
        base = std::move(pr);
        have_base = true;
        continue;
      }
      EXPECT_EQ(pr.failovers, base.failovers);
      EXPECT_EQ(pr.rejoins, base.rejoins);
      EXPECT_EQ(pr.epoch, base.epoch);
      EXPECT_EQ(pr.net, base.net);
      EXPECT_EQ(pr.io_per_step, base.io_per_step);
      EXPECT_EQ(pr.comm, base.comm);
    }
  }
}

// ------------------------------------------------------- total wipe-out ---

TEST(ScheduleWipeOut, DiskCrashWipeOutResumesBitIdenticalUnderEverySchedule) {
  // Total wipe-out hardening: when every real processor dies in the same
  // window, the run aborts typed — but the engine resets the membership to
  // the fresh-run shape (everybody nominally alive, groups home, links
  // reset), and since commit records always live on each group's original
  // disks, a disarm + resume() replays from the intact checkpoint to
  // bit-identical output. The guarantee must hold identically under every
  // collective schedule (the epoch bump re-derives it over the full set).
  const auto keys = sort_keys_input(1200);
  algo::SampleSortProgram<std::uint64_t> prog;

  auto base_cfg = [](routing::ScheduleKind kind) {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 2;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 512;
    cfg.checkpointing = true;
    cfg.net.enabled = true;
    cfg.net.failover = true;
    cfg.net.schedule = kind;
    return cfg;
  };
  em::EmEngine ref(base_cfg(routing::ScheduleKind::kDirect));
  const auto expected = ref.run(prog, keyed_inputs(8, keys));
  const auto& steps = ref.last_result().io_per_step;
  ASSERT_GE(steps.size(), 2u);

  for (routing::ScheduleKind kind :
       {routing::ScheduleKind::kDirect, routing::ScheduleKind::kRing,
        routing::ScheduleKind::kTree, routing::ScheduleKind::kHyperSystolic}) {
    SCOPED_TRACE(routing::to_string(kind));
    std::uint32_t wiped = 0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i + 1 < steps.size() && wiped == 0; ++i) {
      cum += steps[i].total_ops();
      auto cfg = base_cfg(kind);
      // Per-proc op counters; both processors do roughly symmetric I/O, so
      // half the cumulative count lands the crash mid-run on both machines.
      cfg.fault.crash_after_ops = cum / 2 + 1;
      em::EmEngine e(cfg);
      bool crashed = false;
      try {
        (void)e.run(prog, keyed_inputs(8, keys));
      } catch (const IoError& err) {
        EXPECT_EQ(err.kind(), IoErrorKind::kCrash);
        crashed = true;
      }
      if (!crashed || !e.has_checkpoint()) continue;
      // A thrown crash with fail-over on and a valid commit means no
      // survivor remained; the hardening must have reset the membership.
      EXPECT_TRUE(e.alive(0));
      EXPECT_TRUE(e.alive(1));
      EXPECT_EQ(e.group_host(0), 0u);
      EXPECT_EQ(e.group_host(1), 1u);
      e.disarm_faults();
      const auto got = e.resume(prog);
      EXPECT_TRUE(same_outputs(expected, got)) << "boundary " << i;
      ++wiped;
    }
    EXPECT_GE(wiped, 1u) << "sweep never produced a total wipe-out";
  }
}

TEST(ScheduleWipeOut, NetFailStopWipeOutKeepsTypedFailureUnderEverySchedule) {
  // The fail-stop flavor: the network plan kills every processor, so even
  // after the membership reset a resume() replays into the same detector
  // verdict — the run must keep failing typed (no hang, no bit-rot), under
  // every collective schedule.
  const auto keys = sort_keys_input(1200);
  algo::SampleSortProgram<std::uint64_t> prog;
  for (routing::ScheduleKind kind :
       {routing::ScheduleKind::kDirect, routing::ScheduleKind::kRing,
        routing::ScheduleKind::kTree, routing::ScheduleKind::kHyperSystolic}) {
    SCOPED_TRACE(routing::to_string(kind));
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 2;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 512;
    cfg.checkpointing = true;
    cfg.net.enabled = true;
    cfg.net.failover = true;
    cfg.net.schedule = kind;
    cfg.net.fault.fail_stops = {{0, 2}, {1, 2}};
    em::EmEngine e(cfg);
    EXPECT_THROW((void)e.run(prog, keyed_inputs(8, keys)), Error);
    if (!e.has_checkpoint()) continue;
    EXPECT_TRUE(e.alive(0));
    EXPECT_TRUE(e.alive(1));
    EXPECT_THROW((void)e.resume(prog), Error);
  }
}
