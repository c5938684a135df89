// Benchmark spans and the self-time analysis of engine traces.
#include <algorithm>

#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool engine_shard = false;  ///< barrier spans: may contain any host's spans
  std::size_t shard = 0;
  const emcgm::obs::Span* span = nullptr;
};

/// Metric a span kind's self time is booked under. Kinds the README's layer
/// map does not name separately are pooled into emcgm.other.self_s so the
/// per-kind self times still add up to the traced wall time.
std::string self_key(emcgm::obs::SpanKind k, bool native) {
  using emcgm::obs::SpanKind;
  if (native) return k == SpanKind::kCompute ? "algo.native_compute_s" : "";
  switch (k) {
    case SpanKind::kCompute:
      return "algo.compute_s";
    case SpanKind::kNetPost:
      return "net.post_s";
    case SpanKind::kNetCollect:
      return "net.collect_s";
    case SpanKind::kNetPair:
      return "net.pair_s";
    case SpanKind::kSuperstep:
    case SpanKind::kGroupStep:
    case SpanKind::kContextRead:
    case SpanKind::kInboxRead:
    case SpanKind::kOutboxWrite:
    case SpanKind::kContextWrite:
    case SpanKind::kOutputCollect:
    case SpanKind::kCommit:
      return std::string("emcgm.") + emcgm::obs::span_name(k) + ".self_s";
    default:
      return "emcgm.other.self_s";
  }
}

bool counts_ops(emcgm::obs::SpanKind k) {
  using emcgm::obs::SpanKind;
  return k == SpanKind::kContextRead || k == SpanKind::kInboxRead ||
         k == SpanKind::kOutboxWrite || k == SpanKind::kContextWrite;
}

/// Length of the union of [start, end) intervals sorted by start.
class UnionLength {
 public:
  void add(std::uint64_t s, std::uint64_t e) {
    if (e <= s) return;
    if (!open_ || s > cur_e_) {
      total_ += cur_e_ - cur_s_;
      cur_s_ = s;
      cur_e_ = e;
      open_ = true;
    } else {
      cur_e_ = std::max(cur_e_, e);
    }
  }
  std::uint64_t total() const { return total_ + (cur_e_ - cur_s_); }

 private:
  bool open_ = false;
  std::uint64_t cur_s_ = 0, cur_e_ = 0, total_ = 0;
};

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kProcessStart)
          .count());
}

int SpanLog::open(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
}

double SpanLog::total_s(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.dur_s();
  }
  return t;
}

std::int64_t tracer_offset_ns(const emcgm::obs::Tracer& tracer) {
  const std::uint64_t mine = now_ns();
  const std::uint64_t theirs = tracer.now_ns();
  return static_cast<std::int64_t>(mine) - static_cast<std::int64_t>(theirs);
}

void add_engine_self_times(const emcgm::obs::Tracer& tracer,
                           std::int64_t offset_ns, const SpanLog& log,
                           const std::string& call_name, bool native,
                           std::map<std::string, double>& out) {
  std::vector<Interval> iv;
  const auto& shards = tracer.shards();
  for (std::size_t sh = 0; sh < shards.size(); ++sh) {
    for (const emcgm::obs::Span& s : shards[sh].spans()) {
      Interval x;
      x.start = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(s.start_ns) + offset_ns);
      x.end = x.start + s.dur_ns;
      x.engine_shard = sh == tracer.p();
      x.shard = sh;
      x.span = &s;
      iv.push_back(x);
    }
  }
  std::stable_sort(iv.begin(), iv.end(),
                   [](const Interval& a, const Interval& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.end > b.end;
                   });

  // Self time = duration minus the union of the descendants' intervals. A
  // host shard is written by one thread, so containment within the shard is
  // nesting. An engine-shard (barrier) span runs while no host thread works
  // on anything else, so every span inside it descends from it. net_pair
  // spans are published pre-timed from the threads that simulated them and
  // overlap each other; they are leaves.
  double covered = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const Interval& a = iv[i];
    UnionLength kids;
    if (a.span->kind != emcgm::obs::SpanKind::kNetPair) {
      for (std::size_t j = i + 1; j < iv.size() && iv[j].start < a.end; ++j) {
        const Interval& b = iv[j];
        if (b.end > a.end) continue;
        if (!a.engine_shard && b.shard != a.shard) continue;
        kids.add(b.start, b.end);
      }
    }
    const double self = ns_to_s(a.end - a.start - kids.total());
    covered += self;
    const std::string key = self_key(a.span->kind, native);
    if (!key.empty()) out[key] += self;
    if (!native && counts_ops(a.span->kind)) {
      out[std::string("emcgm.") + emcgm::obs::span_name(a.span->kind) +
          ".ops"] += static_cast<double>(a.span->io.total_ops());
    }
  }

  // The benchmark's call spans minus every engine span inside them: what
  // the entry point spends outside the engine's instrumented phases.
  double call_s = 0, call_self = 0;
  for (const SpanLog::Span& c : log.spans()) {
    if (c.name != call_name) continue;
    UnionLength inside;
    for (const Interval& x : iv) {
      if (x.start >= c.start_ns && x.end <= c.end_ns) {
        inside.add(x.start, x.end);
      }
    }
    call_s += c.dur_s();
    call_self += c.dur_s() - ns_to_s(inside.total());
  }
  if (native) return;
  out["cgm.call_self_s"] += call_self;
  out["obs.engine_span_s"] += covered;
  out["obs.call_s"] += call_s;
}

}  // namespace perfbench
