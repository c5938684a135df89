#include "chaos/plan.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "pdm/fault.h"
#include "routing/schedule.h"

namespace emcgm::chaos {

namespace {

// Per-layer seed derivation: the plan seed tagged with a layer id, run
// through the shared fault clock's mixer. Event positions never enter, so a
// shrunk plan's surviving events fire exactly when they did in the original.
constexpr std::uint64_t kDiskLayer = 0x6469736bULL;    // "disk"
constexpr std::uint64_t kLinkLayer = 0x6c696e6bULL;    // "link"
constexpr std::uint64_t kDrawStream = 0x63616f73ULL;   // "caos"

std::uint64_t layer_seed(std::uint64_t seed, std::uint64_t layer,
                         std::uint64_t sub) {
  return pdm::fault_mix(seed ^ (layer * 0x9E3779B97F4A7C15ULL) ^ sub);
}

bool is_disk_kind(ChaosEvent::Kind k) {
  using K = ChaosEvent::Kind;
  return k == K::kTransientRead || k == K::kTransientWrite ||
         k == K::kTornWrite || k == K::kBitflip || k == K::kDiskCrash;
}

bool is_link_kind(ChaosEvent::Kind k) {
  using K = ChaosEvent::Kind;
  return k == K::kLinkDrop || k == K::kLinkDup || k == K::kLinkCorrupt ||
         k == K::kLinkReorder || k == K::kLinkDelay;
}

constexpr ChaosEvent::Kind kAllKinds[] = {
    ChaosEvent::Kind::kTransientRead, ChaosEvent::Kind::kTransientWrite,
    ChaosEvent::Kind::kTornWrite,     ChaosEvent::Kind::kBitflip,
    ChaosEvent::Kind::kDiskCrash,     ChaosEvent::Kind::kLinkDrop,
    ChaosEvent::Kind::kLinkDup,       ChaosEvent::Kind::kLinkCorrupt,
    ChaosEvent::Kind::kLinkReorder,   ChaosEvent::Kind::kLinkDelay,
    ChaosEvent::Kind::kKill,          ChaosEvent::Kind::kRejoin,
    ChaosEvent::Kind::kDiskQuota,     ChaosEvent::Kind::kSchedule,
};

}  // namespace

const char* to_string(ChaosEvent::Kind kind) {
  using K = ChaosEvent::Kind;
  switch (kind) {
    case K::kTransientRead:  return "transient-read";
    case K::kTransientWrite: return "transient-write";
    case K::kTornWrite:      return "torn-write";
    case K::kBitflip:        return "bitflip";
    case K::kDiskCrash:      return "disk-crash";
    case K::kLinkDrop:       return "link-drop";
    case K::kLinkDup:        return "link-dup";
    case K::kLinkCorrupt:    return "link-corrupt";
    case K::kLinkReorder:    return "link-reorder";
    case K::kLinkDelay:      return "link-delay";
    case K::kKill:           return "kill";
    case K::kRejoin:         return "rejoin";
    case K::kDiskQuota:      return "disk-quota";
    case K::kSchedule:       return "schedule";
  }
  return "unknown";
}

// ------------------------------------------------------------------ apply --

void ChaosPlan::apply(cgm::MachineConfig& cfg) const {
  const std::uint32_t p = cfg.p;
  for (const ChaosEvent& e : events) {
    const bool machine_wide =
        is_link_kind(e.kind) || e.kind == ChaosEvent::Kind::kSchedule;
    if (!machine_wide && e.proc >= p) {
      throw IoError(IoErrorKind::kConfig,
                    std::string("chaos event '") + to_string(e.kind) +
                        "' names real processor " + std::to_string(e.proc) +
                        " on a p=" + std::to_string(p) + " machine");
    }
    if (e.kind == ChaosEvent::Kind::kSchedule &&
        e.value > static_cast<std::uint64_t>(
                      routing::ScheduleKind::kHyperSystolic)) {
      throw IoError(IoErrorKind::kConfig,
                    "chaos event 'schedule' names collective schedule index " +
                        std::to_string(e.value) + "; known kinds are 0..3");
    }
  }

  // Disk fault surface: one FaultPlan per real processor, each with its own
  // derived seed, so per-disk coin streams stay independent across procs.
  const bool any_disk =
      std::any_of(events.begin(), events.end(),
                  [](const ChaosEvent& e) { return is_disk_kind(e.kind); });
  if (any_disk) {
    if (cfg.fault_per_proc.empty()) cfg.fault_per_proc.assign(p, cfg.fault);
    for (std::uint32_t r = 0; r < p; ++r) {
      cfg.fault_per_proc[r].seed = layer_seed(seed, kDiskLayer, r);
    }
    for (const ChaosEvent& e : events) {
      if (!is_disk_kind(e.kind)) continue;
      pdm::FaultPlan& f = cfg.fault_per_proc[e.proc];
      switch (e.kind) {
        case ChaosEvent::Kind::kTransientRead:
          f.transient_read_at = e.value;
          break;
        case ChaosEvent::Kind::kTransientWrite:
          f.transient_write_at = e.value;
          break;
        case ChaosEvent::Kind::kTornWrite:
          f.torn_write_at = e.value;
          break;
        case ChaosEvent::Kind::kBitflip:
          f.bitflip_write_at = e.value;
          break;
        case ChaosEvent::Kind::kDiskCrash:
          f.crash_after_ops = e.value;
          break;
        default:
          break;
      }
    }
  }

  // Capacity quotas live in the chaos config itself.
  for (const ChaosEvent& e : events) {
    if (e.kind != ChaosEvent::Kind::kDiskQuota) continue;
    if (cfg.chaos.disk_quota_per_proc.empty()) {
      cfg.chaos.disk_quota_per_proc.assign(p, cfg.chaos.disk_quota_bytes);
    }
    cfg.chaos.disk_quota_per_proc[e.proc] = e.value;
  }

  // Network surfaces only exist on a multi-machine config; on p == 1 the
  // remaining event classes are structurally inert and simply dropped.
  if (p < 2) return;

  bool any_net = false;
  for (const ChaosEvent& e : events) {
    if (!is_link_kind(e.kind) && e.kind != ChaosEvent::Kind::kKill &&
        e.kind != ChaosEvent::Kind::kRejoin &&
        e.kind != ChaosEvent::Kind::kSchedule) {
      continue;
    }
    any_net = true;
    net::NetFaultPlan& nf = cfg.net.fault;
    switch (e.kind) {
      case ChaosEvent::Kind::kLinkDrop:
        nf.drop_prob = std::max(nf.drop_prob, e.prob);
        break;
      case ChaosEvent::Kind::kLinkDup:
        nf.dup_prob = std::max(nf.dup_prob, e.prob);
        break;
      case ChaosEvent::Kind::kLinkCorrupt:
        nf.corrupt_prob = std::max(nf.corrupt_prob, e.prob);
        break;
      case ChaosEvent::Kind::kLinkReorder:
        nf.reorder_prob = std::max(nf.reorder_prob, e.prob);
        break;
      case ChaosEvent::Kind::kLinkDelay:
        nf.delay_prob = std::max(nf.delay_prob, e.prob);
        break;
      case ChaosEvent::Kind::kKill:
        nf.fail_stops.push_back(net::NodeEvent{e.proc, e.value});
        cfg.net.failover = true;
        cfg.checkpointing = true;
        break;
      case ChaosEvent::Kind::kRejoin: {
        // Reboot of a machine the plan never killed earlier: a no-op, not
        // an error — the shrinker must be free to drop kills and rejoins
        // independently without producing an invalid config.
        bool killed_before = cfg.net.fault.fail_stop_proc == e.proc &&
                             cfg.net.fault.fail_stop_at_step < e.value;
        for (const ChaosEvent& k : events) {
          killed_before = killed_before ||
                          (k.kind == ChaosEvent::Kind::kKill &&
                           k.proc == e.proc && k.value < e.value);
        }
        if (killed_before) {
          nf.rejoins.push_back(net::NodeEvent{e.proc, e.value});
          cfg.net.rejoin = true;
          cfg.net.failover = true;
          cfg.checkpointing = true;
        }
        break;
      }
      case ChaosEvent::Kind::kSchedule:
        // Non-direct routing rides the simulated network, so a schedule
        // event flips the net surface on like the link kinds do. Later
        // events win, matching how a JSON repro reads top to bottom.
        cfg.net.schedule = static_cast<routing::ScheduleKind>(e.value);
        break;
      default:
        break;
    }
  }
  if (any_net) {
    cfg.net.enabled = true;
    cfg.net.fault.seed = layer_seed(seed, kLinkLayer, 0);
  }
}

// ------------------------------------------------------------------- JSON --

std::string ChaosPlan::to_json() const {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip exactly
  os << "{\n  \"seed\": " << seed << ",\n  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChaosEvent& e = events[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"kind\": \"" << to_string(e.kind) << "\", \"proc\": " << e.proc
       << ", \"value\": " << e.value << ", \"prob\": " << e.prob << "}";
  }
  os << (events.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

namespace {

// Minimal cursor parser for exactly the plan schema: objects, arrays,
// strings without escapes, and numbers. Anything else is kConfig.
struct JsonCursor {
  const char* p;
  const char* end;

  [[noreturn]] void fail(const std::string& what) const {
    throw IoError(IoErrorKind::kConfig, "chaos plan JSON: " + what);
  }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  void expect(char c) {
    skip_ws();
    if (p >= end || *p != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++p;
  }
  std::string parse_string() {
    expect('"');
    std::string s;
    while (p < end && *p != '"') {
      if (*p == '\\') fail("escape sequences unsupported");
      s += *p++;
    }
    expect('"');
    return s;
  }
  double parse_number() {
    skip_ws();
    char* after = nullptr;
    const double d = std::strtod(p, &after);
    if (after == p) fail("expected a number");
    p = after;
    return d;
  }
  /// An integer field, exactly: seeds use all 64 bits, which a double
  /// cannot hold. Fractions, exponents, signs and values above `max` fail.
  std::uint64_t parse_uint(std::uint64_t max) {
    skip_ws();
    std::uint64_t v = 0;
    const auto [after, ec] = std::from_chars(p, end, v);
    if (ec == std::errc::result_out_of_range || (ec == std::errc{} && v > max)) {
      fail("integer out of range");
    }
    if (ec != std::errc{}) fail("expected an unsigned integer");
    if (after < end && (*after == '.' || *after == 'e' || *after == 'E')) {
      fail("expected an unsigned integer");
    }
    p = after;
    return v;
  }
};

}  // namespace

ChaosPlan ChaosPlan::parse_json(const std::string& text) {
  JsonCursor c{text.data(), text.data() + text.size()};
  ChaosPlan plan;
  plan.seed = 0;
  c.expect('{');
  bool first_key = true;
  while (!c.peek('}')) {
    if (!first_key) c.expect(',');
    first_key = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "seed") {
      plan.seed = c.parse_uint(std::numeric_limits<std::uint64_t>::max());
    } else if (key == "events") {
      c.expect('[');
      while (!c.peek(']')) {
        if (!plan.events.empty()) c.expect(',');
        c.expect('{');
        ChaosEvent e;
        bool have_kind = false;
        bool first = true;
        while (!c.peek('}')) {
          if (!first) c.expect(',');
          first = false;
          const std::string field = c.parse_string();
          c.expect(':');
          if (field == "kind") {
            const std::string name = c.parse_string();
            have_kind = false;
            for (ChaosEvent::Kind k : kAllKinds) {
              if (name == to_string(k)) {
                e.kind = k;
                have_kind = true;
              }
            }
            if (!have_kind) c.fail("unknown event kind '" + name + "'");
          } else if (field == "proc") {
            e.proc = static_cast<std::uint32_t>(
                c.parse_uint(std::numeric_limits<std::uint32_t>::max()));
          } else if (field == "value") {
            e.value = c.parse_uint(std::numeric_limits<std::uint64_t>::max());
          } else if (field == "prob") {
            e.prob = c.parse_number();
          } else {
            c.fail("unknown event field '" + field + "'");
          }
        }
        c.expect('}');
        if (!have_kind) c.fail("event without a kind");
        plan.events.push_back(e);
      }
      c.expect(']');
    } else {
      c.fail("unknown key '" + key + "'");
    }
  }
  c.expect('}');
  if (plan.seed == 0) c.fail("missing or zero seed");
  return plan;
}

// --------------------------------------------------------------- generate --

ChaosPlan ChaosPlan::generate(std::uint64_t seed, const PlanShape& shape) {
  ChaosPlan plan;
  plan.seed = seed == 0 ? 1 : seed;

  // SplitMix-style draw stream, independent of the per-layer fault streams
  // the plan seeds at apply() time.
  std::uint64_t state = layer_seed(plan.seed, kDrawStream, 0);
  auto next = [&state]() {
    state += 0x9E3779B97F4A7C15ULL;
    return pdm::fault_mix(state);
  };
  auto below = [&next](std::uint64_t bound) {
    return bound == 0 ? 0 : next() % bound;
  };

  using K = ChaosEvent::Kind;
  std::vector<K> kinds = {K::kTransientRead, K::kTransientWrite,
                          K::kTornWrite, K::kBitflip};
  if (shape.allow_disk_crash) kinds.push_back(K::kDiskCrash);
  if (shape.quota_max_bytes >= shape.quota_min_bytes &&
      shape.quota_max_bytes > 0) {
    kinds.push_back(K::kDiskQuota);
  }
  if (shape.p >= 2) {
    kinds.insert(kinds.end(), {K::kLinkDrop, K::kLinkDup, K::kLinkCorrupt,
                               K::kLinkReorder, K::kLinkDelay});
    if (shape.allow_kill) kinds.push_back(K::kKill);
    if (shape.allow_rejoin) kinds.push_back(K::kRejoin);
    if (shape.allow_schedule) kinds.push_back(K::kSchedule);
  }

  const std::uint64_t draws = 1 + below(std::max(1u, shape.max_events));
  for (std::uint64_t i = 0; i < draws; ++i) {
    ChaosEvent e;
    e.kind = kinds[below(kinds.size())];
    switch (e.kind) {
      case K::kTransientRead:
      case K::kTransientWrite:
      case K::kTornWrite:
      case K::kBitflip:
        e.proc = static_cast<std::uint32_t>(below(shape.p));
        e.value = 1 + below(shape.max_disk_op);
        break;
      case K::kDiskCrash:
        e.proc = static_cast<std::uint32_t>(below(shape.p));
        e.value = 1 + below(shape.max_disk_op * 2);
        break;
      case K::kLinkDrop:
      case K::kLinkDup:
      case K::kLinkCorrupt:
      case K::kLinkReorder:
      case K::kLinkDelay:
        // Quantized so the JSON artifact reads naturally; any double
        // round-trips through to_json regardless.
        e.prob = static_cast<double>(1 + below(200)) / 1000.0 *
                 (shape.max_prob * 5.0);
        e.prob = std::min(e.prob, shape.max_prob);
        break;
      case K::kKill:
        e.proc = static_cast<std::uint32_t>(below(shape.p));
        e.value = 1 + below(shape.max_step);
        break;
      case K::kRejoin: {
        // Drawn as a kill + reboot pair so the rejoin always has a
        // preceding death; the shrinker may later drop either half (an
        // orphaned rejoin is a no-op under apply()).
        const auto proc = static_cast<std::uint32_t>(below(shape.p));
        const std::uint64_t kill_step = 1 + below(shape.max_step);
        plan.events.push_back(ChaosEvent{K::kKill, proc, kill_step, 0.0});
        e.proc = proc;
        e.value = kill_step + 1 + below(3);
        break;
      }
      case K::kDiskQuota:
        e.proc = static_cast<std::uint32_t>(below(shape.p));
        e.value = shape.quota_min_bytes +
                  below(shape.quota_max_bytes - shape.quota_min_bytes + 1);
        break;
      case K::kSchedule:
        e.value = below(4);  // uniform over the ScheduleKind indices
        break;
    }
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace emcgm::chaos
