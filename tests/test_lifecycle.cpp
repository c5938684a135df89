// Storage lifecycle of a reused engine: track space is scoped to one run,
// so ten programs on one EmEngine must behave exactly like ten fresh
// engines — same outputs, same I/O statistics — and the disks must never
// outgrow the largest single program, on both backends, with and without
// checkpointing, serial and async I/O. A crash in the middle of the
// sequence must resume bit-identically too.
//
// The suite name matters: CI's TSan job selects `Lifecycle`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algo/permute.h"
#include "algo/sort.h"
#include "emcgm/em_engine.h"
#include "graph/graph.h"
#include "graph/list_ranking.h"
#include "pdm/backend.h"
#include "scoped_temp_dir.h"
#include "util/math.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

constexpr std::size_t kN = std::size_t{1} << 14;
constexpr int kRuns = 10;

template <typename T>
cgm::PartitionSet chunked(const std::vector<T>& items, std::uint32_t v) {
  cgm::PartitionSet set;
  set.parts.resize(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    const auto begin = items.begin() + chunk_begin(items.size(), v, j);
    set.parts[j] = vec_to_bytes(std::vector<T>(
        begin, begin + chunk_size(items.size(), v, j)));
  }
  return set;
}

/// Program k of the cycle sample sort -> list ranking -> permute, on
/// inputs seeded by k.
struct Job {
  std::unique_ptr<cgm::Program> program;
  std::vector<cgm::PartitionSet> inputs;
};

Job make_job(int k, const cgm::MachineConfig& cfg) {
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(k);
  Job job;
  switch (k % 3) {
    case 0:
      job.program = std::make_unique<algo::SampleSortProgram<std::uint64_t>>();
      job.inputs.push_back(chunked(random_keys(seed, kN), cfg.v));
      break;
    case 1: {
      auto nodes = graph::random_list(seed, kN);
      std::sort(nodes.begin(), nodes.end(),
                [](const auto& a, const auto& b) { return a.id < b.id; });
      job.program = graph::make_list_rank_program(kN, cfg.seed, false);
      job.inputs.push_back(chunked(nodes, cfg.v));
      break;
    }
    default:
      job.program = std::make_unique<algo::PermuteProgram<std::uint64_t>>(kN);
      job.inputs.push_back(chunked(random_keys(seed, kN), cfg.v));
      job.inputs.push_back(chunked(random_permutation(seed, kN), cfg.v));
      break;
  }
  return job;
}

using Outputs = std::vector<cgm::PartitionSet>;

bool same_outputs(const Outputs& a, const Outputs& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].parts != b[k].parts) return false;
  }
  return true;
}

std::vector<std::uint64_t> per_disk_tracks(em::EmEngine& e) {
  auto& array = e.disk_array(0);
  std::vector<std::uint64_t> t(array.num_disks());
  array.drain();
  for (std::uint32_t d = 0; d < array.num_disks(); ++d) {
    t[d] = array.backend().tracks_used(d);
  }
  return t;
}

/// What a fresh engine does with program k.
struct Fresh {
  Outputs out;
  pdm::IoStats io;
  std::uint64_t tracks = 0;
  std::vector<std::uint64_t> disk_tracks;
  std::uint64_t ops = 0;  ///< parallel I/Os of the run
};

using Param = std::tuple<pdm::BackendKind, bool, std::uint32_t>;

class Lifecycle : public ::testing::TestWithParam<Param> {
 protected:
  cgm::MachineConfig config() {
    cgm::MachineConfig cfg;
    cfg.v = 8;
    cfg.p = 1;
    cfg.disk.num_disks = 4;
    cfg.disk.block_bytes = 1024;
    cfg.backend = std::get<0>(GetParam());
    cfg.checkpointing = std::get<1>(GetParam());
    cfg.io_threads = std::get<2>(GetParam());
    cfg.seed = 5;
    if (cfg.backend == pdm::BackendKind::kFile) {
      dirs_.emplace_back("lifecycle");
      cfg.file_dir = dirs_.back().path();
    }
    return cfg;
  }

  std::vector<Fresh> fresh_runs() {
    std::vector<Fresh> fresh;
    for (int k = 0; k < kRuns; ++k) {
      em::EmEngine e(config());
      Job job = make_job(k, e.config());
      Fresh f;
      f.out = e.run(*job.program, std::move(job.inputs));
      f.io = e.last_result().io;
      f.tracks = e.tracks_used(0);
      f.disk_tracks = per_disk_tracks(e);
      f.ops = f.io.total_ops();
      fresh.push_back(std::move(f));
    }
    return fresh;
  }

 private:
  std::vector<test::ScopedTempDir> dirs_;
};

TEST_P(Lifecycle, ReusedEngineMatchesFreshAndStaysBounded) {
  const std::vector<Fresh> fresh = fresh_runs();
  std::uint64_t largest = 0;
  for (const auto& f : fresh) largest = std::max(largest, f.tracks);

  em::EmEngine e(config());
  std::vector<std::uint64_t> union_tracks(e.config().disk.num_disks, 0);
  for (int k = 0; k < kRuns; ++k) {
    Job job = make_job(k, e.config());
    const auto out = e.run(*job.program, std::move(job.inputs));
    EXPECT_TRUE(same_outputs(out, fresh[k].out)) << "run " << k;
    EXPECT_EQ(e.last_result().io, fresh[k].io) << "run " << k;
    // Each run rewrites the tracks a fresh engine would use, from track 0:
    // every disk's high-water mark is the largest of the runs so far.
    for (std::size_t d = 0; d < union_tracks.size(); ++d) {
      union_tracks[d] = std::max(union_tracks[d], fresh[k].disk_tracks[d]);
    }
    EXPECT_EQ(per_disk_tracks(e), union_tracks) << "run " << k;
    EXPECT_LE(e.tracks_used(0), largest) << "run " << k;
  }
}

/// The same sweep with checkpointing always on: resume() needs it.
class LifecycleCrash : public Lifecycle {};

TEST_P(LifecycleCrash, CrashInFifthRunResumesBitIdentical) {
  const std::vector<Fresh> fresh = fresh_runs();
  // Fail-stop halfway through run 5 (index 4), counted in parallel I/Os
  // since the engine was built.
  std::uint64_t before = 0;
  for (int k = 0; k < 4; ++k) before += fresh[k].ops;
  auto cfg = config();
  cfg.fault.crash_after_ops = before + fresh[4].ops / 2;

  em::EmEngine e(cfg);
  for (int k = 0; k < kRuns; ++k) {
    Job job = make_job(k, e.config());
    if (k != 4) {
      EXPECT_TRUE(same_outputs(e.run(*job.program, std::move(job.inputs)),
                               fresh[k].out))
          << "run " << k;
      continue;
    }
    bool crashed = false;
    try {
      (void)e.run(*job.program, std::move(job.inputs));
    } catch (const IoError& err) {
      EXPECT_EQ(err.kind(), IoErrorKind::kCrash);
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "the crash must land inside run 5";
    ASSERT_TRUE(e.has_checkpoint());
    e.disarm_faults();
    EXPECT_TRUE(same_outputs(e.resume(*job.program), fresh[k].out));
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const bool memory = std::get<0>(info.param) == pdm::BackendKind::kMemory;
  return std::string(memory ? "Memory" : "File") +
         (std::get<1>(info.param) ? "Ckpt" : "NoCkpt") + "T" +
         std::to_string(std::get<2>(info.param));
}

const auto kBackends = ::testing::Values(pdm::BackendKind::kMemory,
                                         pdm::BackendKind::kFile);
const auto kIoThreads = ::testing::Values(0u, 4u);

INSTANTIATE_TEST_SUITE_P(Sweep, Lifecycle,
                         ::testing::Combine(kBackends, ::testing::Bool(),
                                            kIoThreads),
                         param_name);
INSTANTIATE_TEST_SUITE_P(Sweep, LifecycleCrash,
                         ::testing::Combine(kBackends,
                                            ::testing::Values(true),
                                            kIoThreads),
                         param_name);

}  // namespace
