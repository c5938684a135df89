// Figure 8 (Stevens' measurements): the effect of the transfer block size
// on effective disk throughput — positioning-dominated at small blocks,
// saturating toward the media rate at large blocks. This motivates the
// paper's choice of B ~ 10^3 items and the simulation's insistence on
// blocked transfers. We reproduce the curve with the analytic service-time
// model and then show its end-to-end effect on the simulated sort.
#include <cstdio>
#include <string>

#include "algo/sort.h"
#include "bench/bench_util.h"
#include "util/rng.h"

using namespace emcgm;
using namespace emcgm::bench;

int main(int argc, char** argv) {
  const std::string json_path = json_arg(argc, argv);
  const TraceOption trace = trace_arg(argc, argv);
  pdm::DiskCostModel cost;
  std::printf(
      "Fig. 8 reproduction (model): effective per-disk throughput vs block"
      " size\n"
      "(seek %.1f ms + rotation %.2f ms + transfer at %.0f MB/s).\n\n",
      cost.avg_seek_ms, cost.avg_rotational_ms, cost.bandwidth_mb_s);

  Table curve({"block size (bytes)", "effective MB/s", "% of media rate"});
  for (std::size_t b = 512; b <= (1u << 24); b *= 4) {
    const double eff = cost.effective_mb_s(b);
    curve.row({fmt_u(b), fmt(eff, 3), fmt(100 * eff / cost.bandwidth_mb_s, 1)});
  }
  curve.print();
  std::printf("50%% efficiency at B = %zu bytes.\n\n",
              cost.block_bytes_for_efficiency(0.5));

  // The same curve *measured*: a DiskArray whose backend sleeps the modeled
  // per-block service time (scaled 1/64), serial path vs the async per-disk
  // executor at D=4. Small blocks are positioning-bound in both modes; the
  // async column shows the executor recovering ~D of the per-op latency by
  // overlapping the four per-disk sleeps — on any core count, since the
  // overlap is device latency, not computation. Stats and data are checked
  // bit-identical between modes (nonzero exit on divergence).
  const double kTimeScale = 64.0;
  const std::uint32_t kD = 4;
  const std::uint64_t kTracks = 32;
  std::printf(
      "Measured with modeled per-block service time (1/%.0f scale), D=%u,"
      " %llu\nfull-stripe writes + %llu reads per point:\n\n",
      kTimeScale, kD, static_cast<unsigned long long>(kTracks),
      static_cast<unsigned long long>(kTracks));
  Table meas({"B (bytes)", "serial wall (s)", "async wall (s)",
              "async speedup", "serial MB/s/disk", "async MB/s/disk"});
  for (std::size_t b : {2048u, 8192u, 32768u, 131072u}) {
    const std::string dir = scratch_dir("fig8/B" + std::to_string(b));
    const OverlapRun serial =
        overlap_workload(kD, b, 0, pdm::BackendKind::kMemory, dir, cost,
                         kTimeScale, kTracks);
    const OverlapRun async_run =
        overlap_workload(kD, b, kD, pdm::BackendKind::kMemory, dir, cost,
                         kTimeScale, kTracks);
    if (!serial.data_ok || !async_run.data_ok ||
        !(serial.stats == async_run.stats)) {
      std::fprintf(stderr, "FAIL: async executor diverged at B=%zu\n", b);
      return 1;
    }
    // Per-disk throughput at the *scaled* service time; multiply by the
    // scale to compare against the analytic curve above.
    const double bytes_per_disk = static_cast<double>(2 * kTracks) * b;
    meas.row({fmt_u(b), fmt(serial.wall, 4), fmt(async_run.wall, 4),
              fmt(serial.wall / async_run.wall, 2) + "x",
              fmt(bytes_per_disk / serial.wall / 1e6 / kTimeScale, 3),
              fmt(bytes_per_disk / async_run.wall / 1e6 / kTimeScale, 3)});
  }
  meas.print();
  std::printf(
      "\nExpected shape: both columns rise with B toward the media rate;"
      " the async\ncolumn is ~Dx the serial one at every block size.\n\n");

  std::printf(
      "End-to-end effect: EM-CGM sort (v=8, D=2, N=2^16) under a block-size"
      " sweep — op counts fall with B, modeled I/O time finds the knee.\n\n");
  const std::size_t n = 1u << 16;
  auto keys = random_keys(3, n);
  Table t({"B (bytes)", "parallel I/Os", "modeled I/O time (s)",
           "effective MB/s moved"});
  for (std::size_t B : {512u, 2048u, 8192u, 32768u, 131072u}) {
    auto cfg = standard_config(8, 1, 2, B);
    const bool traced = B == 8192u;  // the paper's B ~ 10^3-item knee
    if (traced) trace.arm(cfg);
    cgm::Machine em(cgm::EngineKind::kEm, checked(cfg));
    algo::sort_keys(em, keys);
    if (traced) trace.write(em.engine());
    const auto& io = em.total().io;
    const double secs = cost.io_seconds(io, B);
    const double bytes_moved = static_cast<double>(io.total_blocks()) * B;
    t.row({fmt_u(B), fmt_u(io.total_ops()), fmt(secs, 3),
           fmt(bytes_moved / secs / 1e6 / 2, 2)});
  }
  t.print();
  std::printf(
      "\nExpected shape: throughput rises with B and saturates — the"
      " Fig. 8 curve; tiny blocks are positioning-bound.\n");
  write_json_report(json_path, {{"fig8_throughput_model", curve},
                                {"fig8_measured_overlap", meas},
                                {"fig8_sort_blocksize", t}});
  return 0;
}
