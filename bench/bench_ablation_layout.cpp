// Ablation: the message store's layout on uniform sort traffic — parallel
// efficiency, operation counts, and disk footprint of the staggered
// chained-extent store.
//
// Layout gate: the bench exits nonzero unless the store's parallel I/Os
// stay within 1% of the paper's fixed staggered matrix (Fig. 2). The matrix
// is no longer built; its count for this exact run — v = 8, p = 1, N = 2^17
// keys from seed 9, D = 4, B = 2 KiB, balanced routing, double-buffered —
// was 2676 parallel I/Os, so the bound is floor(1.01 * 2676) = 2702. Both
// runs are deterministic, so this is the bound the live matrix gave.
#include <cstdio>

#include "algo/sort.h"
#include "bench/bench_util.h"
#include "emcgm/em_engine.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::bench;

namespace {

struct Probe {
  std::uint64_t ops;
  double efficiency;
  std::uint64_t tracks;
};

/// Parallel I/Os of the double-buffered staggered matrix on this run.
constexpr std::uint64_t kMatrixOps = 2676;
/// The gate: within 1% of the matrix, floor(1.01 * kMatrixOps).
constexpr std::uint64_t kMaxOps = kMatrixOps * 101 / 100;

Probe run(std::size_t n, const TraceOption& trace) {
  cgm::MachineConfig cfg = standard_config(8, 1, 4, 2048);
  cfg.balanced_routing = true;  // the setting the matrix reference ran with
  trace.arm(cfg);
  em::EmEngine engine(checked(cfg));

  algo::SampleSortProgram<std::uint64_t> prog;
  auto keys = random_keys(9, n);
  cgm::PartitionSet input;
  input.parts.resize(8);
  for (std::uint32_t j = 0; j < 8; ++j) {
    const auto b = chunk_begin(n, 8, j), c = chunk_size(n, 8, j);
    input.parts[j] = vec_to_bytes(
        std::vector<std::uint64_t>(keys.begin() + b, keys.begin() + b + c));
  }
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(input));
  engine.run(prog, std::move(inputs));
  trace.write(engine);

  Probe p{};
  p.ops = engine.last_result().io.total_ops();
  p.efficiency = engine.io_stats(0).parallel_efficiency(4);
  p.tracks = engine.tracks_used(0);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const TraceOption trace = trace_arg(argc, argv);
  const std::string json_path = json_arg(argc, argv);
  const std::size_t n = 1u << 17;
  std::printf(
      "Ablation: message store layout under balanced sort traffic\n"
      "v=8, p=1, D=4, B=2 KiB, N=2^17 items, balanced routing on.\n\n");

  Table t({"layout", "parallel I/Os", "parallel efficiency",
           "disk tracks used"});
  const auto chained = run(n, trace);
  t.row({"staggered chained extents", fmt_u(chained.ops),
         fmt(chained.efficiency, 3), fmt_u(chained.tracks)});
  t.print();
  std::printf(
      "\nExpected shape: near-1.0 parallel efficiency, with space"
      " proportional to actual traffic rather than v^2 fixed slots. The"
      " bench exits nonzero if parallel I/Os exceed %llu, 1%% above the"
      " %llu of the paper's double-buffered staggered matrix on this run.\n",
      static_cast<unsigned long long>(kMaxOps),
      static_cast<unsigned long long>(kMatrixOps));
  write_json_report(json_path, {{"message_store_layout", t}});
  if (chained.ops > kMaxOps) {
    std::fprintf(stderr,
                 "FAIL: %llu parallel I/Os > %llu (1.01 x the staggered"
                 " matrix's %llu) — the store does not stagger its inboxes\n",
                 static_cast<unsigned long long>(chained.ops),
                 static_cast<unsigned long long>(kMaxOps),
                 static_cast<unsigned long long>(kMatrixOps));
    return 1;
  }
  return 0;
}
