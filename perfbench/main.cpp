// emcgm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds of samples and prints a human-readable
// table, one JSON report line ({"perfbench_report": ...}: run metadata,
// host fingerprint, every metric with its unit and sample count, the exact
// counts) and, last, the summary line
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the summary carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced pass. Exit status:
// 0 = every output matched its reference and every exact count repeated,
// 1 = a mismatch, 2 = bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "per_layer" in BENCHMARK.json.
const MetricDef kPerLayer[] = {
    {"emcgm.context_read.self_s", "s"},  {"emcgm.context_read.ops", "count"},
    {"emcgm.inbox_read.self_s", "s"},    {"emcgm.inbox_read.ops", "count"},
    {"emcgm.outbox_write.self_s", "s"},  {"emcgm.outbox_write.ops", "count"},
    {"emcgm.context_write.self_s", "s"}, {"emcgm.context_write.ops", "count"},
    {"emcgm.superstep.self_s", "s"},     {"emcgm.group_step.self_s", "s"},
    {"emcgm.output_collect.self_s", "s"}, {"emcgm.commit.self_s", "s"},
    {"emcgm.other.self_s", "s"},         {"emcgm.tracks_hw", "count"},
    {"algo.compute_s", "s"},             {"algo.native_compute_s", "s"},
    {"cgm.comm_steps", "count"},         {"cgm.scatter_s", "s"},
    {"cgm.gather_s", "s"},               {"cgm.call_self_s", "s"},
    {"net.post_s", "s"},                 {"net.collect_s", "s"},
    {"net.pair_s", "s"},                 {"net.wire_bytes", "bytes"},
    {"net.retransmissions", "count"},    {"pdm.parallel_ops", "count"},
    {"pdm.blocks_per_op", "ratio"},      {"pdm.full_stripe_ratio", "ratio"},
    {"pdm.retries", "count"},            {"pdm.write_mbps", "MB/s"},
    {"pdm.read_mbps", "MB/s"},           {"pdm.async_write_mbps", "MB/s"},
    {"pdm.crc32c_mbps", "MB/s"},         {"util.archive_mbps", "MB/s"},
    {"svc.ticks", "count"},              {"svc.tick_s", "s"},
    {"svc.preemptions", "count"},        {"svc.charged_bytes", "bytes"},
    {"svc.parallelism", "ratio"},        {"proc.user_s", "s"},
    {"proc.sys_s", "s"},                 {"proc.minor_faults", "count"},
    {"baseline.mergesort_s", "s"},       {"baseline.ios_per_stream", "ratio"},
    {"baseline.merge_passes", "count"},  {"obs.trace_overhead", "ratio"},
    {"obs.span_coverage", "ratio"},
};

/// Stop starting samples after this long, so a run ends well inside the
/// 180 s a caller allows even when minimum sample counts are not reached.
constexpr double kHardStopS = 140;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// One warm-up sample, then samples until `budget` seconds have passed and
/// at least `min` timed ones exist. The warm-up sample is checked like any
/// other but left out of every timing: it pays for first-touch page faults
/// and lazily built state that later samples reuse.
std::vector<Sample> run_loop(Workload& w, bool traced, double budget,
                             std::size_t min) {
  std::vector<Sample> out;
  const std::uint64_t t0 = now_ns();
  while (out.size() < min + 1 || ns_to_s(now_ns() - t0) < budget) {
    if (ns_to_s(now_ns()) > kHardStopS && out.size() > 1) break;
    out.push_back(w.sample(traced));
    out.back().rss_mb = peak_rss_mb();
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  auto workload = make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Sample> plain, traced;
  std::map<std::string, double> once;
  SpanLog once_log;
  rusage ru0{}, ru1{};
  try {
    workload->prepare(args.seed);
    getrusage(RUSAGE_SELF, &ru0);
    plain = run_loop(*workload, false,
                     args.trace ? args.seconds / 2 : args.seconds,
                     args.trace ? 2 : workload->min_samples());
    getrusage(RUSAGE_SELF, &ru1);
    if (args.trace) {
      traced = run_loop(*workload, true, args.seconds / 2, 2);
      run_layer_probes(once);
      workload->once_per_process(once, once_log);
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("run aborted: ") + e.what());
    ++failed;
    ++attempted;
  }

  // Outputs, then the exact-count check: every sample, traced or not, must
  // repeat the first sample's counts bit for bit.
  std::vector<const Sample*> all;
  for (const auto& s : plain) all.push_back(&s);
  for (const auto& s : traced) all.push_back(&s);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Sample* s = all[i];
    attempted += s->checked;
    failed += s->mismatched;
    errors.insert(errors.end(), s->errors.begin(), s->errors.end());
    if (s->counts != all.front()->counts) {
      ++failed;
      for (const auto& [k, v] : s->counts) {
        if (all.front()->counts.at(k) != v) {
          errors.push_back("exact count " + k + " = " + num(v) +
                           " differs from the first sample's " +
                           num(all.front()->counts.at(k)) +
                           (i >= plain.size() ? " (traced sample)" : ""));
        }
      }
    }
  }
  if (attempted == 0) attempted = 1;

  std::vector<Metric> e2e, layer;
  // Printed and in the report line, but not in the summary: the summary
  // carries only metrics every workload reports, steady enough to gate on.
  std::vector<Metric> report_only;
  std::map<std::string, std::vector<double>> series;  // untraced, per sample
  for (const Sample& s : plain) {
    series["latency_s"].insert(series["latency_s"].end(), s.latency_s.begin(),
                               s.latency_s.end());
    series["wall_s"].push_back(sum(s.latency_s));
    series["native_s"].push_back(s.native_s);
    series["setup_s"].push_back(s.setup_s);
    series["rss_mb"].push_back(s.rss_mb);
  }
  if (plain.size() > 1) {
    // plain[0] and traced[0] are warm-up samples (see run_loop).
    const std::span<const Sample> timed(plain.data() + 1, plain.size() - 1);
    std::vector<double> thr, lat, nat, setup, per_sample;
    for (const Sample& s : timed) {
      if (s.latency_s.empty() || s.native_s <= 0) continue;  // failed sample
      thr.push_back(s.items / sum(s.latency_s));
      lat.insert(lat.end(), s.latency_s.begin(), s.latency_s.end());
      nat.push_back(s.native_items / s.native_s);
      setup.push_back(s.setup_s);
      per_sample.push_back(sum(s.latency_s));
    }
    const std::size_t n = timed.size();
    e2e = {
        {"items_per_s", median(thr), "items/s", n},
        {"latency_p50_s", median(lat), "s", lat.size()},
        {"ios_per_stream", plain.front().counts.at("ios_per_stream"), "ratio",
         all.size()},
        // Peak RSS when the warm-up sample ends: set-up plus one sample of
        // work. Later samples add only allocator fragmentation whose size
        // depends on thread timing (svc-mix grows by up to 20% over a run),
        // which would tie the value to the run's length.
        {"peak_rss_mb", plain.front().rss_mb, "MiB", 1},
        {"setup_s", median(setup), "s", n},
    };
    // The native comparator is the noisiest timing on a shared host (it is
    // memory-bound and short) and no EM-side change is meant to move it.
    report_only.push_back({"native_items_per_s", median(nat), "items/s", n});
    // The p90 is reported only where at least ten samples lie beyond it.
    std::sort(lat.begin(), lat.end());
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(lat.size())));
    if (rank >= 1 && lat.size() - rank >= 10) {
      report_only.push_back({"latency_p90_s", lat[rank - 1], "s", lat.size()});
    }

    if (args.trace && traced.size() > 1) {
      std::map<std::string, std::vector<double>> vals;
      std::vector<double> traced_wall, coverage;
      for (const Sample& s :
           std::span<const Sample>(traced.data() + 1, traced.size() - 1)) {
        for (const auto& [k, v] : s.layer) vals[k].push_back(v);
        traced_wall.push_back(sum(s.latency_s));
        const auto c = s.layer.find("obs.call_s");
        if (c != s.layer.end() && c->second > 0) {
          coverage.push_back(s.layer.at("obs.engine_span_s") / c->second);
        }
      }
      std::map<std::string, double> lv;
      for (const auto& [k, v] : vals) lv[k] = median(v);
      for (const auto& [k, v] : once) lv[k] = v;
      // The rusage window spans the whole untraced loop, warm-up included.
      const double nplain = static_cast<double>(plain.size());
      lv["proc.user_s"] = (seconds(ru1.ru_utime) - seconds(ru0.ru_utime)) / nplain;
      lv["proc.sys_s"] = (seconds(ru1.ru_stime) - seconds(ru0.ru_stime)) / nplain;
      lv["proc.minor_faults"] =
          static_cast<double>(ru1.ru_minflt - ru0.ru_minflt) / nplain;
      lv["obs.trace_overhead"] = median(traced_wall) / median(per_sample);
      lv["obs.span_coverage"] = median(coverage);
      for (const MetricDef& d : kPerLayer) {
        const bool from_once = once.count(d.name) > 0;
        const bool from_plain = std::strncmp(d.name, "proc.", 5) == 0;
        layer.push_back({d.name, lv.count(d.name) ? lv[d.name] : 0.0, d.unit,
                         from_once ? 1 : from_plain ? n : traced.size() - 1});
      }
    }
  }
  report_only.push_back(
      {"fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
       "ratio", static_cast<std::size_t>(attempted)});
  const bool correct = failed == 0 && plain.size() > 1;

  // ---- human-readable ----------------------------------------------------
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  %s\n", workload->describe().c_str());
  std::printf("  samples (each after one warm-up sample): %zu untraced, %zu "
              "traced\n",
              plain.empty() ? 0 : plain.size() - 1,
              traced.empty() ? 0 : traced.size() - 1);
  auto print_table = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-30s %16.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  };
  print_table("end-to-end (untraced):", e2e);
  print_table("report-only (untraced; fail_ratio n = outputs checked):",
              report_only);
  if (args.trace) {
    print_table("per-layer (traced pass; medians per sample):", layer);
    // Self-time table: where one traced sample's time went, largest first.
    std::vector<Metric> st;
    for (const Metric& m : layer) {
      const std::string& nm = m.name;
      if (m.unit == "s" && nm.rfind("proc.", 0) != 0 &&
          nm.rfind("baseline.", 0) != 0 && nm.rfind("svc.", 0) != 0 &&
          nm != "algo.native_compute_s" && m.value > 0) {
        st.push_back(m);
      }
    }
    std::sort(st.begin(), st.end(),
              [](const Metric& a, const Metric& b) { return a.value > b.value; });
    double total = 0;
    for (const Metric& m : st) total += m.value;
    std::printf("self time of one traced sample (EM engine spans + benchmark spans):\n");
    if (st.empty()) {
      std::printf("  (no engine spans: JobService does not expose its tenants' "
                  "tracers)\n");
    }
    for (const Metric& m : st) {
      std::printf("  %-30s %12.6f s %6.1f%%\n", m.name.c_str(), m.value,
                  total > 0 ? 100.0 * m.value / total : 0.0);
    }
  }
  for (const auto& e : errors) std::printf("ERROR: %s\n", e.c_str());

  // ---- report line -------------------------------------------------------
  auto metrics_json = [](const std::vector<Metric>& ms, bool samples) {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
         << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"";
      if (samples) os << ", \"samples\": " << ms[i].samples;
      os << "}";
    }
    os << "}";
    return os.str();
  };
  {
    std::ostringstream os;
    os << "{\"perfbench_report\": {\"meta\": {\"workload\": \""
       << json_escape(args.workload) << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << num(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"describe\": \""
       << json_escape(workload->describe()) << "\", \"nproc\": "
       << std::thread::hardware_concurrency() << ", \"cpu\": \""
       << json_escape(cpu_model()) << "\", \"compiler\": \""
       << json_escape(__VERSION__) << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"backend\": \"memory\""
       << ", \"warmup_samples_per_pass\": 1, \"samples_untraced\": "
       << (plain.empty() ? 0 : plain.size() - 1) << ", \"samples_traced\": "
       << (traced.empty() ? 0 : traced.size() - 1) << "}, \"end_to_end\": "
       << metrics_json(e2e, true) << ", \"per_layer\": "
       << metrics_json(layer, true) << ", \"report_only\": "
       << metrics_json(report_only, true) << ", \"counts\": {";
    bool first = true;
    if (!all.empty()) {
      for (const auto& [k, v] : all.front()->counts) {
        os << (first ? "" : ", ") << "\"" << k << "\": " << num(v);
        first = false;
      }
    }
    // The benchmark's spans of the last traced sample and of the
    // once-per-process comparators, with parent links.
    auto spans_json = [](const SpanLog& log) {
      std::ostringstream js;
      js << "[";
      const auto& sp = log.spans();
      for (std::size_t i = 0; i < sp.size(); ++i) {
        js << (i ? ", " : "") << "{\"name\": \"" << json_escape(sp[i].name)
           << "\", \"start_s\": " << num(ns_to_s(sp[i].start_ns))
           << ", \"dur_s\": " << num(sp[i].dur_s())
           << ", \"parent\": " << sp[i].parent << "}";
      }
      js << "]";
      return js.str();
    };
    os << "}, \"spans\": {\"sample\": "
       << spans_json(traced.empty() ? SpanLog{} : traced.back().log)
       << ", \"process\": " << spans_json(once_log) << "}";
    os << ", \"per_sample\": {";
    first = true;
    for (const auto& [k, v] : series) {
      os << (first ? "" : ", ") << "\"" << k << "\": [";
      for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << num(v[i]);
      os << "]";
      first = false;
    }
    os << "}, \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      os << (i ? ", " : "") << "\"" << json_escape(errors[i]) << "\"";
    }
    os << "]}}";
    std::printf("%s\n", os.str().c_str());
  }

  // ---- summary line (last line of stdout) --------------------------------
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? layer : e2e, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
