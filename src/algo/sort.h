// Deterministic CGM sample sort (regular sampling, after Goodrich's
// constant-round CGM sorting as cited by the paper for Fig. 5 row A1).
//
// lambda = 6 compound supersteps, independent of N:
//   0  stable local sort, send v regular samples to processor 0
//   1  processor 0 sorts the <= v^2 samples, broadcasts v-1 splitters
//   2  partition local runs by splitter, send bucket k to processor k
//   3  merge the v received runs, all-gather bucket counts
//   4  compute global ranks, rebalance to exact even chunks
//   5  emit output
//
// Only keys move between rounds. Ties are broken implicitly: the item at
// index j of processor i's stably sorted run is ordered by the triple
// (value under Less, i, j). Only the regular samples (and the splitters
// drawn from them) carry that triple explicitly; every other comparison
// derives it from where the item sits. The order is total and agrees with
// every local run, so regular sampling bounds every bucket by 2N/v + v
// items even on duplicate-heavy inputs, and processor 0 holds v^2 samples
// in round 1, giving the paper's N >= v^3-type slackness (kappa <= 3).
//
// Output contract: the result is the exact even-chunk distribution
// (chunk_size(N, v, j) items on processor j) of std::stable_sort applied to
// the global input in scatter order (processor-major) under Less.
#pragma once

#include <algorithm>
#include <functional>
#include <ranges>
#include <type_traits>
#include <vector>

#include "algo/primitives.h"
#include "cgm/machine.h"
#include "cgm/program.h"

namespace emcgm::algo {

template <typename T>
struct SampleSortState {
  std::uint32_t phase = 0;
  std::vector<T> data;

  void save(WriteArchive& ar) const {
    ar.put(phase);
    ar.put_vec(data);
  }
  void load(ReadArchive& ar) {
    phase = ar.get<std::uint32_t>();
    data = ar.get_vec<T>();
  }
};

template <typename T, typename Less = std::less<T>>
class SampleSortProgram final : public cgm::ProgramT<SampleSortState<T>> {
 public:
  using State = SampleSortState<T>;

  std::string name() const override { return "sample_sort"; }

  void round(cgm::ProcCtx& ctx, State& st) const override {
    const std::uint32_t v = ctx.nprocs();
    switch (st.phase) {
      case 0: {  // stable local sort + regular samples to processor 0
        st.data = ctx.input_items<T>(0);
        if constexpr (kKeysAreBytes) {
          // Equivalent keys are byte-identical: any sort is the stable one,
          // and introsort beats stable_sort here (EXPERIMENTS.md, keys-only
          // sample sort).
          std::sort(st.data.begin(), st.data.end());
        } else {
          std::stable_sort(st.data.begin(), st.data.end(), Less{});
        }
        const std::size_t n = st.data.size();
        // Value-initialized, so padding after val is zero on the wire.
        std::vector<Sample> samples(n == 0 ? 0 : v);
        for (std::uint32_t k = 0; k < samples.size(); ++k) {
          const std::size_t pos = static_cast<std::size_t>(k) * n / v;
          samples[k].val = st.data[pos];
          samples[k].pid = ctx.pid();
          samples[k].pos = pos;
        }
        ctx.send_vec(0, samples);
        break;
      }
      case 1: {  // processor 0 chooses and broadcasts splitters
        if (ctx.pid() == 0) {
          auto samples = ctx.recv_concat<Sample>();
          std::sort(samples.begin(), samples.end(), SampleLess{});
          std::vector<Sample> spl;
          if (!samples.empty()) {
            spl.reserve(v - 1);
            for (std::uint32_t k = 0; k + 1 < v; ++k) {
              const std::size_t pos =
                  ceil_div(static_cast<std::uint64_t>(k + 1) * samples.size(),
                           v) -
                  1;
              spl.push_back(samples[pos]);
            }
          }
          prim::send_all(ctx, spl);
        }
        break;
      }
      case 2: {  // partition the sorted run, bucket k -> processor k
        const auto spl = ctx.recv_from<Sample>(0);
        const std::uint64_t me = ctx.pid();
        const std::size_t n = st.data.size();
        const Less less{};
        std::size_t begin = 0;
        for (std::uint32_t k = 0; k < v; ++k) {
          std::size_t end = n;
          if (k + 1 < v && k < spl.size()) {
            // First index whose triple (data[j], me, j) exceeds spl[k].
            const Sample& s = spl[k];
            const auto not_above = [&](std::size_t j) {
              if (less(st.data[j], s.val)) return true;
              if (less(s.val, st.data[j])) return false;
              return me < s.pid || (me == s.pid && j <= s.pos);
            };
            const auto idx = std::views::iota(begin, n);
            end = begin + static_cast<std::size_t>(
                              std::ranges::partition_point(idx, not_above) -
                              idx.begin());
          }
          ctx.send_items<T>(
              k, std::span<const T>(st.data.data() + begin, end - begin));
          begin = end;
        }
        st.data.clear();
        st.data.shrink_to_fit();
        break;
      }
      case 3: {  // merge the v source-ordered runs, all-gather counts
        st.data = merge_runs(ctx);
        const std::uint64_t count = st.data.size();
        prim::send_all(ctx, std::vector<std::uint64_t>{count});
        break;
      }
      case 4: {  // global ranks; rebalance to exact even chunks
        auto by_src = prim::recv_by_src<std::uint64_t>(ctx);
        std::vector<std::uint64_t> counts(v, 0);
        for (std::uint32_t j = 0; j < v; ++j) {
          if (!by_src[j].empty()) counts[j] = by_src[j][0];
        }
        const auto prefix = prim::exclusive_prefix(counts);
        prim::send_by_rank<T>(ctx, st.data, prefix[ctx.pid()],
                              prefix[v - 1] + counts[v - 1]);
        st.data.clear();
        st.data.shrink_to_fit();
        break;
      }
      case 5: {  // sources hold increasing rank ranges: concat is sorted
        ctx.set_output(ctx.recv_concat<T>(), 0);
        break;
      }
      default:
        EMCGM_CHECK_MSG(false, "sample_sort ran past its final round");
    }
    ++st.phase;
  }

  bool done(const cgm::ProcCtx&, const State& st) const override {
    return st.phase >= 6;
  }

 private:
  /// Integral keys under std::less: equivalence is byte equality.
  static constexpr bool kKeysAreBytes =
      std::is_integral_v<T> && std::is_same_v<Less, std::less<T>>;

  /// A regular sample with its tie-break triple made explicit.
  struct Sample {
    T val;
    std::uint64_t pid;
    std::uint64_t pos;
  };

  /// (value under Less, pid, pos)-lexicographic: total for any input.
  struct SampleLess {
    Less less{};
    bool operator()(const Sample& a, const Sample& b) const {
      if (less(a.val, b.val)) return true;
      if (less(b.val, a.val)) return false;
      return a.pid != b.pid ? a.pid < b.pid : a.pos < b.pos;
    }
  };

  /// The inbox holds one run per source in source order, each sorted by
  /// the implicit triple; a stable bottom-up pairwise merge (ties to the
  /// lower source) yields the bucket in triple order. Same result as a
  /// stable_sort of recv_concat, measurably faster (EXPERIMENTS.md).
  static std::vector<T> merge_runs(const cgm::ProcCtx& ctx) {
    std::vector<T> a = ctx.recv_concat<T>();
    std::vector<std::size_t> bounds{0};
    for (const auto& m : ctx.inbox()) {
      bounds.push_back(bounds.back() + m.payload.size() / sizeof(T));
    }
    if (bounds.size() <= 2) return a;
    std::vector<T> b(a.size());
    while (bounds.size() > 2) {
      std::vector<std::size_t> next{0};
      std::size_t i = 0;
      for (; i + 2 < bounds.size(); i += 2) {
        std::merge(a.begin() + bounds[i], a.begin() + bounds[i + 1],
                   a.begin() + bounds[i + 1], a.begin() + bounds[i + 2],
                   b.begin() + bounds[i], Less{});
        next.push_back(bounds[i + 2]);
      }
      if (i + 1 < bounds.size()) {  // odd run out: carry it over
        std::copy(a.begin() + bounds[i], a.begin() + bounds[i + 1],
                  b.begin() + bounds[i]);
        next.push_back(bounds[i + 1]);
      }
      a.swap(b);
      bounds.swap(next);
    }
    return a;
  }
};

/// Sort a distributed vector; the result has the exact even-chunk layout.
template <typename T, typename Less = std::less<T>>
cgm::DistVec<T> sample_sort(cgm::Machine& m, cgm::DistVec<T> in) {
  SampleSortProgram<T, Less> prog;
  std::vector<cgm::PartitionSet> inputs;
  inputs.push_back(std::move(in.set));
  auto outs = m.run(prog, std::move(inputs));
  EMCGM_CHECK(outs.size() == 1);
  return cgm::Machine::as_dist<T>(std::move(outs[0]));
}

/// One-call convenience: scatter, sort, gather.
std::vector<std::uint64_t> sort_keys(cgm::Machine& m,
                                     const std::vector<std::uint64_t>& keys);

}  // namespace emcgm::algo
