// End-to-end benchmark of the emcgm library: shared types.
//
// A run executes one workload for a fixed wall budget as a sequence of
// samples. Every sample sets up from scratch (timed as setup), makes one or
// more timed calls into the library's public entry points, checks each
// output against a sequential reference, and records the exact counts the
// library reports. A traced sample additionally arms obs.trace and turns
// the engine's spans, together with the benchmark's own spans, into
// per-layer self times (see README.md in this directory).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace emcgm::obs {
class Tracer;
}

namespace perfbench {

/// Nanoseconds since the first call in this process (steady clock).
std::uint64_t now_ns();

inline double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

inline double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

/// The benchmark's own spans, recorded around every call it makes into the
/// library (construction, scatter, algorithm call, gather, ...). Timings of
/// the untraced run are read from these spans too, so traced and untraced
/// samples time exactly the same intervals.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    double dur_s() const { return ns_to_s(end_ns - start_ns); }
  };

  int open(std::string name, int parent = -1);
  void close(int idx);
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span with this name.
  double total_s(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

/// RAII helper around SpanLog::open/close.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, int parent = -1)
      : log_(log), idx_(log.open(std::move(name), parent)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int idx() const { return idx_; }
  /// Close early; returns the span's duration in seconds.
  double close() {
    if (!closed_) {
      log_.close(idx_);
      closed_ = true;
    }
    return log_.spans()[static_cast<std::size_t>(idx_)].dur_s();
  }

 private:
  SpanLog& log_;
  int idx_;
  bool closed_ = false;
};

/// What one sample measured.
struct Sample {
  double setup_s = 0;            ///< input generation + construction + scatter
  std::vector<double> latency_s; ///< one per timed program run (svc: batch)
  double items = 0;              ///< input items completed by the timed calls
  double native_s = 0;           ///< the same inputs through the native engine
  double native_items = 0;
  double rss_mb = 0;             ///< process peak RSS when the sample ended
  std::uint64_t checked = 0;     ///< outputs compared against a reference
  std::uint64_t mismatched = 0;  ///< ...that differed, threw or were not ok
  std::vector<std::string> errors;
  /// Quantities the library counts exactly; they must repeat bit for bit in
  /// every sample of a run, traced or not.
  std::map<std::string, double> counts;
  /// Per-layer values of this sample (span self times, counters).
  std::map<std::string, double> layer;
  SpanLog log;  ///< the benchmark's spans of this sample
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed, once per process: reference outputs the samples check against.
  virtual void prepare(std::uint64_t seed) = 0;
  /// One sample; `traced` arms obs.trace on every engine it builds.
  virtual Sample sample(bool traced) = 0;
  /// Samples an untraced run needs at least (percentile support).
  virtual std::size_t min_samples() const { return 3; }
  /// Per-layer values measured once per process (comparators).
  virtual void once_per_process(std::map<std::string, double>&, SpanLog&) {}
  /// Workload parameters for the run metadata.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Self time per engine span kind, summed over every span the tracer holds
/// ("emcgm.<kind>.self_s", "emcgm.<kind>.ops", "algo.compute_s", "net.*_s"),
/// plus the part of the benchmark's `call_name` spans no engine span covers
/// ("cgm.call_self_s"). `offset_ns` maps tracer time onto now_ns(). With
/// `native`, only the compute self time is kept ("algo.native_compute_s").
void add_engine_self_times(const emcgm::obs::Tracer& tracer,
                           std::int64_t offset_ns, const SpanLog& log,
                           const std::string& call_name, bool native,
                           std::map<std::string, double>& out);

/// Tracer-to-benchmark clock offset, taken right after an engine is built.
std::int64_t tracer_offset_ns(const emcgm::obs::Tracer& tracer);

/// Layer probes: each times one public pdm/util function directly.
void run_layer_probes(std::map<std::string, double>& out);

double median(std::vector<double> v);

}  // namespace perfbench
