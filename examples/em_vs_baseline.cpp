// The paper's headline in one program: sort the same data on the same
// simulated disks with (a) classical external mergesort — whose pass count
// log_{M/(DB)}(N/M) grows as the data outgrows the fixed machine memory —
// and (b) the deterministic CGM simulation, whose parallel I/O count stays
// a constant multiple of the streaming bound N/(DB) (Theorem 2). On a
// fixed machine, growing N crosses over: the mergesort logarithm keeps
// climbing while the simulation's constant does not.
#include <algorithm>
#include <cstdio>

#include "algo/sort.h"
#include "baseline/em_mergesort.h"
#include "cgm/machine.h"
#include "util/rng.h"

int main() {
  using namespace emcgm;

  const std::uint32_t D = 4;
  const std::size_t B = 4096;
  const std::size_t mem = 3 * D * B;  // a scarce fixed memory: fan-in 2

  std::printf(
      "same disks (D=%u, B=%zu), fixed machine memory M=%zu bytes,\n"
      "growing data: parallel I/O ops per streaming pass N/(DB)\n\n",
      D, B, mem);
  std::printf("%10s | %8s | %22s | %22s\n", "N (items)", "passes",
              "mergesort ops (ratio)", "EM-CGM sim ops (ratio)");

  for (std::size_t n : {1u << 16, 1u << 18, 1u << 20, 1u << 22, 1u << 23, 1u << 24}) {
    auto keys = random_keys(11, n);
    const double stream =
        static_cast<double>(n) * sizeof(std::uint64_t) / (D * B);

    pdm::DiskArray disks(std::make_unique<pdm::MemoryBackend>(
        pdm::DiskGeometry{D, B}));
    baseline::SortStats stats;
    auto a = baseline::em_mergesort(disks, keys, mem, &stats);

    // The simulation scales v with N so each virtual processor's context
    // is a few memory-loads — the coarse-grained regime of §1.4.
    cgm::MachineConfig cfg;
    cfg.v = 32;
    cfg.disk.num_disks = D;
    cfg.disk.block_bytes = B;
    cgm::Machine machine(cgm::EngineKind::kEm, cfg);
    auto b = algo::sort_keys(machine, keys);
    if (a != b) {
      std::fprintf(stderr, "results disagree at n=%zu!\n", n);
      return 1;
    }
    const auto ops_merge = stats.io.total_ops();
    const auto ops_cgm = machine.total().io.total_ops();
    std::printf("%10zu | %8llu | %12llu (%6.2f) | %12llu (%6.2f)%s\n", n,
                static_cast<unsigned long long>(stats.merge_passes),
                static_cast<unsigned long long>(ops_merge),
                ops_merge / stream,
                static_cast<unsigned long long>(ops_cgm), ops_cgm / stream,
                ops_cgm < ops_merge ? "   <-- simulation wins" : "");
  }

  std::printf(
      "\nThe mergesort ratio is 2 x (passes+1) and keeps growing with N;"
      "\nthe simulation's ratio settles near 14 (lambda = 6 compound"
      " supersteps\nof a sample sort that moves bare keys), so the"
      " simulation wins once\nmergesort needs about 8 passes or more — the"
      " paper's log-factor elimination.\n");
  return 0;
}
