// End-to-end smoke: sort, permute, and transpose run on both engines, in
// several machine configurations, and agree with references. Deeper
// per-module suites live in the other test binaries.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/permute.h"
#include "algo/sort.h"
#include "algo/transpose.h"
#include "cgm/machine.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

cgm::MachineConfig base_cfg(std::uint32_t v, std::uint32_t p = 1) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = 4;
  cfg.disk.block_bytes = 512;
  return cfg;
}

}  // namespace

TEST(Smoke, SortNative) {
  cgm::Machine m(cgm::EngineKind::kNative, base_cfg(8));
  auto keys = random_keys(42, 10000);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(algo::sort_keys(m, keys), expect);
}

TEST(Smoke, SortEm) {
  cgm::Machine m(cgm::EngineKind::kEm, base_cfg(8));
  auto keys = random_keys(43, 10000);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(algo::sort_keys(m, keys), expect);
  EXPECT_GT(m.total().io.total_ops(), 0u);
}

TEST(Smoke, SortEmMultiProcBalancedStaggered) {
  auto cfg = base_cfg(8, 2);
  cfg.balanced_routing = true;
  cgm::Machine m(cgm::EngineKind::kEm, cfg);
  auto keys = random_keys(44, 5000);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(algo::sort_keys(m, keys), expect);
}

TEST(Smoke, PermuteEm) {
  cgm::Machine m(cgm::EngineKind::kEm, base_cfg(4));
  const std::size_t n = 4096;
  auto values = random_keys(7, n);
  auto perm = random_permutation(8, n);
  auto dv = m.scatter<std::uint64_t>(values);
  auto dp = m.scatter<std::uint64_t>(perm);
  auto out = m.gather(algo::permute<std::uint64_t>(m, dv, dp));
  std::vector<std::uint64_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) expect[perm[i]] = values[i];
  EXPECT_EQ(out, expect);
}

TEST(Smoke, TransposeEm) {
  cgm::Machine m(cgm::EngineKind::kEm, base_cfg(4));
  const std::uint64_t rows = 60, cols = 37;
  std::vector<std::uint64_t> mat(rows * cols);
  for (std::size_t i = 0; i < mat.size(); ++i) mat[i] = i;
  auto dv = m.scatter<std::uint64_t>(mat);
  auto out = m.gather(algo::transpose<std::uint64_t>(m, dv, rows, cols));
  ASSERT_EQ(out.size(), mat.size());
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(out[c * rows + r], mat[r * cols + c]);
    }
  }
}
