// Randomized-traffic fuzz: a program that sends pseudo-random message
// patterns (sizes, sparsity, self-sends, growing state) for several rounds
// must produce byte-identical results on the native engine and on every EM
// engine configuration. This exercises the context store, the message
// store, balanced routing, and multi-processor delivery far from the
// structured patterns of the real algorithms.
#include <gtest/gtest.h>

#include "cgm/machine.h"
#include "cgm/proc_ctx.h"
#include "util/rng.h"

using namespace emcgm;

namespace {

struct FuzzState {
  std::uint32_t phase = 0;
  std::uint64_t checksum = 0;
  std::vector<std::uint64_t> carry;

  void save(WriteArchive& ar) const {
    ar.put(phase);
    ar.put(checksum);
    ar.put_vec(carry);
  }
  void load(ReadArchive& ar) {
    phase = ar.get<std::uint32_t>();
    checksum = ar.get<std::uint64_t>();
    carry = ar.get_vec<std::uint64_t>();
  }
};

/// Each round: fold the inbox into a running checksum and a carried
/// payload, then send pseudo-random slices of the carry to pseudo-random
/// subsets of processors. All decisions derive from (seed, round, pid), so
/// every engine must take the identical path.
class FuzzProgram final : public cgm::ProgramT<FuzzState> {
 public:
  FuzzProgram(std::uint64_t seed, std::uint32_t rounds)
      : seed_(seed), rounds_(rounds) {}

  std::string name() const override { return "fuzz_traffic"; }

  void round(cgm::ProcCtx& ctx, FuzzState& st) const override {
    const std::uint32_t v = ctx.nprocs();
    if (st.phase == 0) {
      st.carry = ctx.input_items<std::uint64_t>(0);
    }
    for (const auto& msg : ctx.inbox()) {
      st.checksum = mix64(st.checksum ^ (msg.src * 1315423911ULL));
      for (auto x : bytes_to_vec<std::uint64_t>(msg.payload)) {
        st.checksum = mix64(st.checksum + x);
        st.carry.push_back(x ^ st.checksum);
      }
      // Bound the carry so state size stays manageable.
      if (st.carry.size() > 4096) {
        st.carry.erase(st.carry.begin(),
                       st.carry.end() - 2048);
      }
    }
    if (st.phase + 1 < rounds_) {
      Rng rng(seed_ ^ (st.phase * 7919ULL) ^ (ctx.pid() * 104729ULL));
      const std::uint32_t fanout =
          1 + static_cast<std::uint32_t>(rng.next_below(v));
      for (std::uint32_t k = 0; k < fanout; ++k) {
        const auto dst = static_cast<std::uint32_t>(rng.next_below(v));
        const std::size_t len = static_cast<std::size_t>(
            rng.next_below(std::max<std::uint64_t>(st.carry.size(), 2)));
        std::vector<std::uint64_t> payload;
        payload.reserve(len + 1);
        payload.push_back(rng.next());
        for (std::size_t i = 0; i < len && i < st.carry.size(); ++i) {
          payload.push_back(st.carry[i]);
        }
        ctx.send_vec(dst, payload);
      }
    } else {
      std::vector<std::uint64_t> out{st.checksum};
      out.insert(out.end(), st.carry.begin(), st.carry.end());
      ctx.set_output(out, 0);
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const FuzzState& st) const override {
    return st.phase >= rounds_;
  }

 private:
  std::uint64_t seed_;
  std::uint32_t rounds_;
};

std::vector<std::vector<std::uint64_t>> run_fuzz(cgm::EngineKind kind,
                                                 const cgm::MachineConfig& cfg,
                                                 std::uint64_t seed) {
  cgm::Machine m(kind, cfg);
  FuzzProgram prog(seed, 8);
  auto input = random_keys(seed, 256 * cfg.v);
  auto dv = m.scatter<std::uint64_t>(input);
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(dv.set));
  auto outs = m.run(prog, std::move(inputs));
  std::vector<std::vector<std::uint64_t>> result;
  for (const auto& part : outs.at(0).parts) {
    result.push_back(bytes_to_vec<std::uint64_t>(part));
  }
  return result;
}

class FuzzSuite : public ::testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(FuzzSuite, AllEngineConfigsAgree) {
  const std::uint64_t seed = GetParam();
  cgm::MachineConfig base;
  base.v = 6;
  base.disk.num_disks = 3;
  base.disk.block_bytes = 128;

  const auto want = run_fuzz(cgm::EngineKind::kNative, base, seed);

  for (bool balanced : {false, true}) {
    for (std::uint32_t p : {1u, 2u, 3u}) {
      cgm::MachineConfig cfg = base;
      cfg.p = p;
      cfg.balanced_routing = balanced;
      EXPECT_EQ(run_fuzz(cgm::EngineKind::kEm, cfg, seed), want)
          << "seed=" << seed << " balanced=" << balanced << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });
