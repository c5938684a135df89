// Geometry algorithms versus brute-force references, across machine
// configurations (engine kind, v, p, balancing).
#include <gtest/gtest.h>

#include <cmath>

#include "cgm/machine.h"
#include "geom/dominance.h"
#include "geom/lower_envelope.h"
#include "geom/maxima3d.h"
#include "geom/nearest_neighbor.h"
#include "geom/point.h"
#include "geom/rect_union.h"
#include "geom/segment_stab.h"

using namespace emcgm;

namespace {

struct GeomParam {
  cgm::EngineKind kind;
  std::uint32_t v;
  std::uint32_t p;
  bool balanced;

  cgm::MachineConfig cfg() const {
    cgm::MachineConfig c;
    c.v = v;
    c.p = p;
    c.disk.num_disks = 2;
    c.disk.block_bytes = 256;
    c.balanced_routing = balanced;
    return c;
  }
};

class GeomSuite : public ::testing::TestWithParam<GeomParam> {
 protected:
  cgm::Machine machine() const {
    return cgm::Machine(GetParam().kind, GetParam().cfg());
  }
};

}  // namespace

TEST_P(GeomSuite, Maxima3d) {
  auto m = machine();
  auto pts = geom::random_points3(11, 800);
  auto got = geom::maxima3d(m, pts);
  auto want = geom::maxima3d_brute(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
  }
}

TEST_P(GeomSuite, DominanceCounts) {
  auto m = machine();
  auto pts = geom::random_wpoints2(13, 600);
  auto got = geom::dominance_counts(m, pts);
  auto want = geom::dominance_counts_brute(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].count, want[i].count) << "point " << got[i].id;
  }
}

TEST_P(GeomSuite, RectUnionArea) {
  auto m = machine();
  auto rects = geom::random_rects(17, 500);
  const double got = geom::rect_union_area(m, rects);
  const double want = geom::rect_union_area_brute(rects);
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want));
}

TEST_P(GeomSuite, AllNearestNeighbors) {
  auto m = machine();
  auto pts = geom::random_points2(19, 700);
  auto got = geom::all_nearest_neighbors(m, pts);
  auto want = geom::all_nearest_neighbors_brute(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nn_id, want[i].nn_id) << "point " << got[i].id;
    EXPECT_DOUBLE_EQ(got[i].d2, want[i].d2);
  }
}

TEST_P(GeomSuite, LowerEnvelope) {
  auto m = machine();
  auto segs = geom::random_noncrossing_segments(23, 400);
  auto env = geom::lower_envelope(m, segs);
  // Envelope pieces must be sorted, non-overlapping, and agree with brute
  // force at their midpoints and at dense probe positions.
  for (std::size_t i = 1; i < env.size(); ++i) {
    EXPECT_LE(env[i - 1].x2, env[i].x1 + 1e-15);
  }
  Rng rng(99);
  for (int probe = 0; probe < 300; ++probe) {
    const double x = rng.next_double();
    auto [found_b, id_b] = geom::envelope_at_brute(segs, x);
    auto [found_e, id_e] = geom::envelope_at(env, x);
    EXPECT_EQ(found_b, found_e) << "x=" << x;
    if (found_b && found_e) {
      EXPECT_EQ(id_b, id_e) << "x=" << x;
    }
  }
}

TEST_P(GeomSuite, IntervalStabbing) {
  auto m = machine();
  auto iv = geom::random_intervals(29, 500);
  std::vector<geom::StabQuery> qs;
  Rng rng(31);
  for (std::size_t i = 0; i < 400; ++i) {
    qs.push_back(geom::StabQuery{rng.next_double(), i});
  }
  auto got = geom::interval_stabbing(m, iv, qs);
  auto want = geom::interval_stabbing_brute(iv, qs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].count, want[i].count) << "query " << got[i].id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GeomSuite,
    ::testing::Values(GeomParam{cgm::EngineKind::kNative, 4, 1, false},
                      GeomParam{cgm::EngineKind::kNative, 7, 1, true},
                      GeomParam{cgm::EngineKind::kEm, 4, 1, false},
                      GeomParam{cgm::EngineKind::kEm, 8, 2, false},
                      GeomParam{cgm::EngineKind::kEm, 6, 3, true},
                      GeomParam{cgm::EngineKind::kEm, 1, 1, false}),
    [](const ::testing::TestParamInfo<GeomParam>& info) {
      const auto& p = info.param;
      std::string s = p.kind == cgm::EngineKind::kNative ? "native" : "em";
      s += "_v" + std::to_string(p.v) + "_p" + std::to_string(p.p);
      if (p.balanced) s += "_bal";
      return s;
    });
