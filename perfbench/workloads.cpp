// The four workloads. Each drives only public entry points: cgm::Machine
// (both engine kinds), algo::sample_sort / algo::permute,
// graph::list_ranking, baseline::em_mergesort and svc::JobService. Why each
// workload exists is written down in README.md next to this file.
#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "algo/permute.h"
#include "algo/sort.h"
#include "baseline/em_mergesort.h"
#include "cgm/machine.h"
#include "emcgm/em_engine.h"
#include "geom/point.h"
#include "graph/graph.h"
#include "graph/list_ranking.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "svc/service.h"
#include "svc/svc_json.h"
#include "svc/workload.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace emcgm;

constexpr std::uint32_t kDisks = 4;
constexpr std::size_t kBlock = 8192;

cgm::MachineConfig em_config(std::uint32_t v, std::uint32_t p, bool traced) {
  cgm::MachineConfig cfg;
  cfg.v = v;
  cfg.p = p;
  cfg.disk.num_disks = kDisks;
  cfg.disk.block_bytes = kBlock;
  cfg.obs.trace = traced;
  return cfg;
}

/// Run fn inside a benchmark span; returns its result and stores the span's
/// duration in `dur`.
template <typename Fn>
auto in_span(SpanLog& log, const char* name, int parent, double& dur,
             Fn&& fn) {
  Scope sc(log, name, parent);
  auto r = fn();
  dur = sc.close();
  return r;
}

/// Output check: counts the comparison and records a mismatch or a throw.
template <typename Fn>
void checked(Sample& s, const std::string& what, Fn&& fn) {
  ++s.checked;
  try {
    if (!fn()) {
      ++s.mismatched;
      s.errors.push_back(what + ": output differs from the reference");
    }
  } catch (const std::exception& e) {
    ++s.mismatched;
    s.errors.push_back(what + ": " + e.what());
  }
}

double stream_blocks(double bytes, std::uint32_t disks, std::size_t block) {
  return bytes / (static_cast<double>(disks) * static_cast<double>(block));
}

/// Exact counts every sample must repeat, plus the pdm counters.
void add_io(Sample& s, const pdm::IoStats& io, double stream,
            std::uint64_t wire_bytes, std::uint64_t ticks) {
  const double ops = static_cast<double>(io.total_ops());
  s.counts["pdm.parallel_ops"] = ops;
  s.counts["ios_per_stream"] = ops / stream;
  s.counts["net.wire_bytes"] = static_cast<double>(wire_bytes);
  s.counts["svc.ticks"] = static_cast<double>(ticks);
  s.layer["pdm.parallel_ops"] = ops;
  s.layer["pdm.blocks_per_op"] =
      ops > 0 ? static_cast<double>(io.total_blocks()) / ops : 0;
  s.layer["pdm.full_stripe_ratio"] =
      ops > 0 ? static_cast<double>(io.full_stripe_ops) / ops : 0;
  s.layer["pdm.retries"] = static_cast<double>(io.retries);
  s.layer["net.wire_bytes"] = static_cast<double>(wire_bytes);
}

std::uint64_t tracks_hw(cgm::Machine& m) {
  auto& em = dynamic_cast<em::EmEngine&>(m.engine());
  std::uint64_t hw = 0;
  for (std::uint32_t r = 0; r < m.config().p; ++r) {
    hw = std::max(hw, em.tracks_used(r));
  }
  return hw;
}

std::int64_t offset_of(cgm::Machine& m) {
  const obs::Tracer* tr = m.engine().tracer();
  return tr ? tracer_offset_ns(*tr) : 0;
}

void add_self_times(cgm::Machine& m, std::int64_t offset, const SpanLog& log,
                    const char* call, bool native, Sample& s) {
  if (const obs::Tracer* tr = m.engine().tracer()) {
    add_engine_self_times(*tr, offset, log, call, native, s.layer);
  }
}

// ---------------------------------------------------------------- sort ----

/// sort-4m and par-sort-1m: sample sort (Algorithm 2, or Algorithm 3 with
/// p > 1 hosts on threads over the simulated network with checkpointing)
/// of uniform random keys, a fresh Machine per sample, then the same keys
/// through the native engine.
class SortWorkload final : public Workload {
 public:
  SortWorkload(std::size_t n, std::uint32_t p, int native_reps, bool mergesort)
      : n_(n), p_(p), native_reps_(native_reps), mergesort_(mergesort) {}

  void prepare(std::uint64_t seed) override {
    key_seed_ = mix64(seed ^ 0x50a7);
    keys_.resize(n_);
    ref_ = random_keys(key_seed_, n_);
    std::sort(ref_.begin(), ref_.end());
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "sample sort, N=" << n_ << " uint64 keys, v=16, p=" << p_
       << ", D=" << kDisks << ", B=" << kBlock
       << (p_ > 1 ? ", host threads, net, checkpointing" : "")
       << ", fresh Machine per sample";
    return os.str();
  }

  Sample sample(bool traced) override {
    Sample s;
    run_em(s, traced);
    // Only the first native run is traced: algo.native_compute_s is the
    // compute time of one run, like algo.compute_s.
    for (int r = 0; r < native_reps_; ++r) run_native(s, traced && r == 0);
    return s;
  }

  void once_per_process(std::map<std::string, double>& out,
                        SpanLog& log) override {
    if (!mergesort_) return;
    // The PDM comparator at the memory of the Fig. 5 comparison (3DB).
    generate_keys();
    const auto& keys = keys_;
    auto disks = pdm::make_disk_array(pdm::BackendKind::kMemory,
                                      pdm::DiskGeometry{kDisks, kBlock}, "");
    baseline::SortStats st;
    double dur = 0;
    const auto sorted = in_span(log, "mergesort", -1, dur, [&] {
      return baseline::em_mergesort(*disks, keys, 3 * kDisks * kBlock, &st);
    });
    if (sorted != ref_) throw std::runtime_error("em_mergesort: wrong order");
    out["baseline.mergesort_s"] = dur;
    out["baseline.ios_per_stream"] =
        static_cast<double>(st.io.total_ops()) /
        stream_blocks(static_cast<double>(n_ * sizeof(std::uint64_t)), kDisks,
                      kBlock);
    out["baseline.merge_passes"] = static_cast<double>(st.merge_passes);
  }

 private:
  /// Refill the benchmark's own key buffer (the keys random_keys(key_seed_)
  /// returns). A fresh 32 MiB vector per sample would sit just above
  /// glibc's largest mmap threshold, so every sample's set-up would pay for
  /// faulting in new pages, at a cost that swings 2x with the host's memory
  /// state; the library never allocates that buffer, so it is not set-up
  /// the library costs.
  void generate_keys() {
    emcgm::Rng rng(key_seed_);
    for (auto& k : keys_) k = rng.next();
  }

  cgm::MachineConfig config(bool traced) const {
    auto cfg = em_config(16, p_, traced);
    if (p_ > 1) {
      cfg.use_threads = true;
      cfg.net.enabled = true;
      cfg.checkpointing = true;
    }
    return cfg;
  }

  void run_em(Sample& s, bool traced) {
    SpanLog& log = s.log;
    double dur = 0;
    std::unique_ptr<cgm::Machine> m;
    cgm::DistVec<std::uint64_t> dv;
    std::int64_t offset = 0;
    {
      Scope setup(log, "setup");
      {
        Scope gen(log, "generate", setup.idx());
        generate_keys();
      }
      m = in_span(log, "construct", setup.idx(), dur, [&] {
        return std::make_unique<cgm::Machine>(cgm::EngineKind::kEm,
                                              config(traced));
      });
      offset = offset_of(*m);
      dv = in_span(log, "scatter", setup.idx(), dur,
                   [&] { return m->scatter(keys_); });
      s.layer["cgm.scatter_s"] = dur;
      s.setup_s = setup.close();
    }
    checked(s, "em sample_sort", [&] {
      double call = 0, gather = 0;
      auto sorted = in_span(log, "em.call", -1, call, [&] {
        return algo::sample_sort<std::uint64_t>(*m, std::move(dv));
      });
      const auto out =
          in_span(log, "em.gather", -1, gather, [&] { return m->gather(sorted); });
      s.latency_s.push_back(call + gather);
      s.items += static_cast<double>(n_);
      s.layer["cgm.gather_s"] = gather;
      return out == ref_;
    });
    const cgm::RunResult& r = m->total();
    add_io(s, r.io,
           stream_blocks(static_cast<double>(n_ * sizeof(std::uint64_t)),
                         kDisks, kBlock),
           r.net.wire_bytes, 0);
    s.layer["cgm.comm_steps"] = static_cast<double>(r.comm_steps);
    s.layer["net.retransmissions"] = static_cast<double>(r.net.retransmissions);
    s.layer["emcgm.tracks_hw"] = static_cast<double>(tracks_hw(*m));
    if (traced) add_self_times(*m, offset, log, "em.call", false, s);
  }

  void run_native(Sample& s, bool traced) {
    SpanLog& log = s.log;
    auto cfg = config(traced);
    cfg.use_threads = false;
    cfg.net = {};
    cfg.checkpointing = false;
    cgm::Machine m(cgm::EngineKind::kNative, cfg);
    const std::int64_t offset = offset_of(m);
    auto dv = m.scatter(keys_);
    checked(s, "native sample_sort", [&] {
      double call = 0, gather = 0;
      auto sorted = in_span(log, "native.call", -1, call, [&] {
        return algo::sample_sort<std::uint64_t>(m, std::move(dv));
      });
      const auto out = in_span(log, "native.gather", -1, gather,
                               [&] { return m.gather(sorted); });
      s.native_s += call + gather;
      s.native_items += static_cast<double>(n_);
      return out == ref_;
    });
    if (traced) add_self_times(m, offset, log, "native.call", true, s);
  }

  std::size_t n_;
  std::uint32_t p_;
  int native_reps_;  ///< native runs per sample, to time a comparable span
  bool mergesort_;
  std::uint64_t key_seed_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> ref_;
};

// --------------------------------------------------------------- chain ----

/// chain-16k: one Machine runs sort -> list ranking -> permute three times
/// on fresh 16K-item inputs, then is discarded. The chain is capped at nine
/// programs because every program's disk tracks stay allocated on a
/// long-lived Machine; the next chain starts from a fresh one.
class ChainWorkload final : public Workload {
 public:
  static constexpr std::size_t kN = 1u << 14;
  static constexpr int kRepeats = 3;  // 3 x (sort, list rank, permute)

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    for (int k = 0; k < kRepeats; ++k) {
      Inputs in = generate(k);
      Refs r;
      r.sorted = in.keys;
      std::sort(r.sorted.begin(), r.sorted.end());
      r.ranks = graph::list_ranking_seq(in.list);
      r.permuted.resize(kN);
      for (std::size_t i = 0; i < kN; ++i) r.permuted[in.targets[i]] = in.values[i];
      refs_.push_back(std::move(r));
    }
  }

  std::string describe() const override {
    return "chain of 9 programs (sort, list ranking, permute) x 3 on one "
           "Machine, N=16384 per program, v=16, p=1, D=4, B=8192";
  }

  // 12 chains = 108 program runs: the p90 then has >= 10 samples above it.
  std::size_t min_samples() const override { return 12; }

  Sample sample(bool traced) override {
    Sample s;
    run_chain(s, cgm::EngineKind::kEm, traced);
    // The native chain takes ~2% of the EM chain's time; five of them per
    // sample keep its timing from resting on a few milliseconds.
    for (int r = 0; r < 5; ++r) {
      run_chain(s, cgm::EngineKind::kNative, traced && r == 0);
    }
    return s;
  }

 private:
  struct Inputs {
    std::vector<std::uint64_t> keys;
    std::vector<graph::ListNode> list;
    std::vector<std::uint64_t> values;
    std::vector<std::uint64_t> targets;
  };
  struct Refs {
    std::vector<std::uint64_t> sorted;
    std::vector<graph::ListRank> ranks;
    std::vector<std::uint64_t> permuted;
  };
  struct Scattered {
    cgm::DistVec<std::uint64_t> keys;
    cgm::DistVec<graph::ListNode> list;
    cgm::DistVec<std::uint64_t> values;
    cgm::DistVec<std::uint64_t> targets;
  };

  Inputs generate(int k) const {
    const std::uint64_t base = mix64(seed_ * 31 + static_cast<std::uint64_t>(k));
    return Inputs{random_keys(base ^ 1, kN), graph::random_list(base ^ 2, kN),
                  random_keys(base ^ 3, kN), random_permutation(base ^ 4, kN)};
  }

  void run_chain(Sample& s, cgm::EngineKind kind, bool traced) {
    SpanLog& log = s.log;
    const bool native = kind == cgm::EngineKind::kNative;
    const std::string pre = native ? "native" : "em";
    double dur = 0;
    std::unique_ptr<cgm::Machine> m;
    std::vector<Scattered> in;
    std::int64_t offset = 0;
    {
      Scope setup(log, native ? "native.setup" : "setup");
      m = in_span(log, "construct", setup.idx(), dur, [&] {
        return std::make_unique<cgm::Machine>(kind, em_config(16, 1, traced));
      });
      offset = offset_of(*m);
      for (int k = 0; k < kRepeats; ++k) {
        const Inputs raw = in_span(log, "generate", setup.idx(), dur,
                                   [&] { return generate(k); });
        in.push_back(in_span(log, "scatter", setup.idx(), dur, [&] {
          return Scattered{m->scatter(raw.keys), m->scatter(raw.list),
                           m->scatter(raw.values), m->scatter(raw.targets)};
        }));
      }
      if (!native) s.setup_s = setup.close();
    }
    const std::string call = pre + ".call";
    const std::string gather = pre + ".gather";
    // One timed program run: the library call plus gathering its output.
    auto timed = [&](const char* what, auto&& run, auto&& ref) {
      checked(s, pre + " " + what, [&] {
        double c = 0, g = 0;
        auto dv = in_span(log, call.c_str(), -1, c, run);
        const auto out =
            in_span(log, gather.c_str(), -1, g, [&] { return m->gather(dv); });
        if (native) {
          s.native_s += c + g;
          s.native_items += kN;
        } else {
          s.latency_s.push_back(c + g);
          s.items += kN;
          s.layer["cgm.gather_s"] += g;
          s.layer["emcgm.tracks_hw"] = static_cast<double>(tracks_hw(*m));
        }
        return ref(out);
      });
    };
    for (int k = 0; k < kRepeats; ++k) {
      Scattered& x = in[static_cast<std::size_t>(k)];
      const Refs& r = refs_[static_cast<std::size_t>(k)];
      timed(
          "sample_sort",
          [&] { return algo::sample_sort<std::uint64_t>(*m, std::move(x.keys)); },
          [&](const std::vector<std::uint64_t>& out) { return out == r.sorted; });
      timed(
          "list_ranking",
          [&] { return graph::list_ranking(*m, std::move(x.list), kN); },
          [&](const std::vector<graph::ListRank>& out) {
            return std::equal(out.begin(), out.end(), r.ranks.begin(),
                              r.ranks.end(), [](const auto& a, const auto& b) {
                                return a.id == b.id && a.rank == b.rank;
                              });
          });
      timed(
          "permute",
          [&] {
            return algo::permute<std::uint64_t>(*m, std::move(x.values),
                                                std::move(x.targets));
          },
          [&](const std::vector<std::uint64_t>& out) {
            return out == r.permuted;
          });
    }
    if (native) {
      if (traced) add_self_times(*m, offset, log, "native.call", true, s);
      return;
    }
    s.layer["cgm.scatter_s"] = log.total_s("scatter");
    const cgm::RunResult& t = m->total();
    // Input bytes of one chain: keys, list nodes, permuted values + targets.
    const std::size_t bytes =
        kRepeats * kN * (3 * sizeof(std::uint64_t) + sizeof(graph::ListNode));
    add_io(s, t.io, stream_blocks(static_cast<double>(bytes), kDisks, kBlock),
           t.net.wire_bytes, 0);
    s.layer["cgm.comm_steps"] = static_cast<double>(t.comm_steps);
    s.layer["net.retransmissions"] = static_cast<double>(t.net.retransmissions);
    if (traced) add_self_times(*m, offset, log, "em.call", false, s);
  }

  std::uint64_t seed_ = 0;
  std::vector<Refs> refs_;
};

// ----------------------------------------------------------------- svc ----

/// svc-mix: twelve tenants through one JobService per sample, checked
/// against each tenant's solo run; the same tenants' programs then run on
/// the native engine.
class SvcWorkload final : public Workload {
 public:
  static constexpr std::size_t kTenants = 12;
  static constexpr std::uint64_t kN = 1u << 16;

  void prepare(std::uint64_t seed) override {
    svc::ServiceSpec spec;
    spec.service.pool.hosts = 4;
    spec.service.pool.disks_per_host = 8;
    spec.service.pool.block_bytes = 4096;
    spec.service.quantum_bytes = 256u << 10;
    spec.service.workers = 4;
    static const char* kKinds[] = {"sort", "list_rank", "maxima"};
    for (std::size_t i = 0; i < kTenants; ++i) {
      svc::JobSpec j;
      j.name = "t";
      j.name += std::to_string(i);
      j.workload = kKinds[i % 3];
      j.n = kN;
      j.seed = mix64(seed * 131 + i);
      j.v = 8;
      j.disks = 4;
      j.hosts = i % 4 == 3 ? 2 : 1;  // every fourth tenant crosses the net
      j.priority = static_cast<std::uint32_t>(i % 2);
      j.arrival_tick = 2 * i;
      spec.jobs.push_back(j);
    }
    // The absorbed draw bench_jobsvc uses: transient disk faults only.
    spec.chaos_seed = 1;
    spec.chaos_shape.max_events = 8;
    spec.chaos_shape.allow_kill = false;
    spec.chaos_shape.allow_rejoin = false;
    spec.chaos_shape.allow_disk_crash = false;
    spec.chaos_shape.target_tenant = 6;
    svc::arm_service_chaos(spec);
    spec_ = spec;
    for (const svc::JobSpec& j : spec_.jobs) {
      const svc::JobResult solo = svc::run_job_solo(j, spec_.service.pool);
      if (!solo.ok) {
        throw std::runtime_error("solo reference of " + j.name +
                                 " failed: " + solo.error);
      }
      solo_hash_.push_back(solo.output_hash);
      stream_ += stream_blocks(static_cast<double>(kN * item_bytes(j.workload)),
                               j.disks, spec_.service.pool.block_bytes);
    }
  }

  std::string describe() const override {
    return "JobService, workers=4, pool 4 hosts x 8 disks, B=4096, quantum "
           "256 KiB; 12 tenants n=65536 cycling sort/list_rank/maxima, every "
           "4th on 2 hosts, 2 priority classes, arrivals every 2 ticks, one "
           "chaos tenant";
  }

  Sample sample(bool traced) override {
    Sample s;
    SpanLog& log = s.log;
    double dur = 0;
    std::unique_ptr<svc::JobService> service;
    {
      Scope setup(log, "setup");
      service = in_span(log, "construct", setup.idx(), dur, [&] {
        auto cfg = spec_.service;
        cfg.trace = traced;
        auto sv = std::make_unique<svc::JobService>(cfg);
        for (const svc::JobSpec& j : spec_.jobs) sv->submit(j);
        return sv;
      });
      s.setup_s = setup.close();
    }
    rusage before{}, after{};
    getrusage(RUSAGE_SELF, &before);
    const auto results = in_span(log, "svc.run_all", -1, dur,
                                 [&] { return service->run_all(); });
    getrusage(RUSAGE_SELF, &after);
    s.latency_s.push_back(dur);
    s.items = static_cast<double>(kTenants * kN);

    pdm::IoStats io;
    std::uint64_t wire = 0, rtx = 0, preempt = 0, charged = 0, steps = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const svc::JobResult& r = results[i];
      checked(s, "tenant " + r.name, [&] {
        if (!r.ok) throw std::runtime_error(r.error);
        return r.output_hash == solo_hash_[i];
      });
      io += r.io;
      wire += r.net.wire_bytes;
      rtx += r.net.retransmissions;
      preempt += r.preemptions;
      charged += r.charged_bytes;
      steps += r.supersteps;
    }
    add_io(s, io, stream_, wire, service->ticks());
    s.layer["net.retransmissions"] = static_cast<double>(rtx);
    s.layer["cgm.comm_steps"] = static_cast<double>(steps);
    s.layer["svc.ticks"] = static_cast<double>(service->ticks());
    s.layer["svc.tick_s"] = dur / static_cast<double>(service->ticks());
    s.layer["svc.preemptions"] = static_cast<double>(preempt);
    s.layer["svc.charged_bytes"] = static_cast<double>(charged);
    const double cpu = seconds(after.ru_utime) - seconds(before.ru_utime) +
                       seconds(after.ru_stime) - seconds(before.ru_stime);
    s.layer["svc.parallelism"] = cpu / dur;
    // Three native passes: one takes a tenth of the service batch.
    for (int r = 0; r < 3; ++r) run_native(s);
    return s;
  }

 private:
  static std::size_t item_bytes(const std::string& kind) {
    if (kind == "list_rank") return sizeof(graph::ListNode);
    if (kind == "maxima") return sizeof(geom::Point3);
    return sizeof(std::uint64_t);
  }

  /// Every tenant's workload stages, run alone on a native Machine.
  void run_native(Sample& s) {
    SpanLog& log = s.log;
    for (std::size_t i = 0; i < spec_.jobs.size(); ++i) {
      const svc::JobSpec& j = spec_.jobs[i];
      const auto w = svc::make_workload(j.workload, j.n, j.seed);
      cgm::MachineConfig cfg;
      cfg.v = j.v;
      cfg.seed = j.seed;
      cgm::Machine m(cgm::EngineKind::kNative, cfg);
      auto inputs = w->initial_inputs(j.v);
      checked(s, "native tenant " + j.name, [&] {
        double dur = 0;
        const auto outs = in_span(log, "native.call", -1, dur, [&] {
          std::vector<cgm::PartitionSet> cur = std::move(inputs);
          for (std::uint32_t st = 0; st < w->stages(); ++st) {
            const auto prog = w->program(st, j.seed);
            auto outs = m.run(*prog, std::move(cur));
            cur = st + 1 < w->stages() ? w->next_inputs(st, std::move(outs))
                                       : std::move(outs);
          }
          return cur;
        });
        s.native_s += dur;
        s.native_items += static_cast<double>(j.n);
        w->check(outs);
        return svc::output_hash(outs) == solo_hash_[i];
      });
    }
  }

  svc::ServiceSpec spec_;
  std::vector<std::uint64_t> solo_hash_;
  double stream_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sort-4m", "par-sort-1m",
                                                 "chain-16k", "svc-mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sort-4m") {
    return std::make_unique<SortWorkload>(1u << 22, 1, 1, true);
  }
  // par-sort-1m's native run takes a quarter of its EM run: three per sample.
  if (name == "par-sort-1m") {
    return std::make_unique<SortWorkload>(1u << 20, 4, 3, false);
  }
  if (name == "chain-16k") return std::make_unique<ChainWorkload>();
  if (name == "svc-mix") return std::make_unique<SvcWorkload>();
  return nullptr;
}

}  // namespace perfbench
