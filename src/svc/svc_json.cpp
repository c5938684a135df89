#include "svc/svc_json.h"

#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace emcgm::svc {

namespace {

JobSpec parse_job(JsonCursor& c) {
  JobSpec j;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "name") {
      j.name = c.parse_string();
    } else if (key == "workload") {
      j.workload = c.parse_string();
    } else if (key == "n") {
      j.n = c.parse_u64();
    } else if (key == "seed") {
      j.seed = c.parse_u64();
    } else if (key == "v") {
      j.v = c.parse_u32();
    } else if (key == "hosts") {
      j.hosts = c.parse_u32();
    } else if (key == "disks") {
      j.disks = c.parse_u32();
    } else if (key == "priority") {
      j.priority = c.parse_u32();
    } else if (key == "arrival_tick") {
      j.arrival_tick = c.parse_u64();
    } else if (key == "use_threads") {
      j.use_threads = c.parse_bool();
    } else if (key == "io_threads") {
      j.io_threads = c.parse_u32();
    } else if (key == "chaos") {
      j.chaos_json = c.capture_object();
    } else {
      c.fail("unknown job field '" + key + "'");
    }
  }
  c.expect('}');
  return j;
}

void parse_pool(JsonCursor& c, PoolConfig& pool) {
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "hosts") {
      pool.hosts = c.parse_u32();
    } else if (key == "disks_per_host") {
      pool.disks_per_host = c.parse_u32();
    } else if (key == "block_bytes") {
      pool.block_bytes = static_cast<std::size_t>(
          c.parse_uint(std::numeric_limits<std::size_t>::max()));
    } else if (key == "placement") {
      const std::string policy = c.parse_string();
      if (policy == "pack") {
        pool.placement = PlacementPolicy::kPack;
      } else if (policy == "spread") {
        pool.placement = PlacementPolicy::kSpread;
      } else {
        c.fail("unknown placement policy '" + policy +
               "' (want \"pack\" or \"spread\")");
      }
    } else {
      c.fail("unknown pool field '" + key + "'");
    }
  }
  c.expect('}');
}

void parse_chaos(JsonCursor& c, ServiceSpec& spec) {
  chaos::PlanShape& sh = spec.chaos_shape;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "seed") {
      spec.chaos_seed = c.parse_u64();
    } else if (key == "target_tenant") {
      sh.target_tenant = static_cast<std::int32_t>(c.parse_number());
    } else if (key == "max_events") {
      sh.max_events = c.parse_u32();
    } else if (key == "max_disk_op") {
      sh.max_disk_op = c.parse_u64();
    } else if (key == "max_step") {
      sh.max_step = c.parse_u64();
    } else if (key == "max_prob") {
      sh.max_prob = c.parse_number();
    } else if (key == "quota_min_bytes") {
      sh.quota_min_bytes = c.parse_u64();
    } else if (key == "quota_max_bytes") {
      sh.quota_max_bytes = c.parse_u64();
    } else if (key == "allow_disk_crash") {
      sh.allow_disk_crash = c.parse_bool();
    } else if (key == "allow_kill") {
      sh.allow_kill = c.parse_bool();
    } else if (key == "allow_rejoin") {
      sh.allow_rejoin = c.parse_bool();
    } else if (key == "allow_schedule") {
      sh.allow_schedule = c.parse_bool();
    } else {
      c.fail("unknown chaos field '" + key + "'");
    }
  }
  c.expect('}');
}

}  // namespace

ServiceSpec parse_service_json(const std::string& text) {
  JsonCursor c(text, "job file JSON");
  ServiceSpec spec;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "pool") {
      parse_pool(c, spec.service.pool);
    } else if (key == "quantum_bytes") {
      spec.service.quantum_bytes = c.parse_u64();
    } else if (key == "workers") {
      spec.service.workers = c.parse_u32();
      if (spec.service.workers == 0) c.fail("\"workers\" must be >= 1");
    } else if (key == "trace") {
      spec.service.trace = c.parse_bool();
    } else if (key == "jobs") {
      c.expect('[');
      while (!c.peek(']')) {
        if (!spec.jobs.empty()) c.expect(',');
        spec.jobs.push_back(parse_job(c));
      }
      c.expect(']');
    } else if (key == "chaos") {
      parse_chaos(c, spec);
    } else {
      c.fail("unknown key '" + key + "'");
    }
  }
  c.expect('}');
  if (spec.jobs.empty()) c.fail("no jobs");
  return spec;
}

void arm_service_chaos(ServiceSpec& spec) {
  if (spec.chaos_seed == 0) return;
  const std::int32_t t = spec.chaos_shape.target_tenant;
  if (t < 0 || static_cast<std::size_t>(t) >= spec.jobs.size()) {
    std::ostringstream os;
    os << "chaos target_tenant " << t << " outside 0.."
       << spec.jobs.size() - 1;
    throw IoError(IoErrorKind::kConfig, os.str());
  }
  JobSpec& target = spec.jobs[static_cast<std::size_t>(t)];
  if (!target.chaos_json.empty()) {
    throw IoError(IoErrorKind::kConfig,
                  "job '" + target.name +
                      "' already carries a per-job chaos plan; refusing to"
                      " overwrite it with the service-level campaign");
  }
  // The generated plan draws over the *target's* machine, not the pool.
  chaos::PlanShape shape = spec.chaos_shape;
  shape.p = target.hosts;
  target.chaos_json =
      chaos::ChaosPlan::generate(spec.chaos_seed, shape).to_json();
}

std::string results_json(const std::vector<JobResult>& results,
                         std::uint64_t ticks) {
  std::ostringstream os;
  os << "{\"ticks\":" << ticks << ",\"jobs\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    os << (i == 0 ? "" : ",") << "\n {\"name\":\"" << json_escape(r.name)
       << "\",\"ok\":" << (r.ok ? "true" : "false") << ","
       << "\"error\":\"" << json_escape(r.error) << "\","
       << "\"output_hash\":\"0x" << std::hex << r.output_hash << std::dec
       << "\",\"supersteps\":" << r.supersteps
       << ",\"preemptions\":" << r.preemptions
       << ",\"admit_tick\":" << r.admit_tick
       << ",\"end_tick\":" << r.end_tick
       << ",\"charged_bytes\":" << r.charged_bytes
       << ",\"app_rounds\":" << r.app_rounds
       << ",\"failovers\":" << r.failovers << ",\"rejoins\":" << r.rejoins
       << ",\"io\":{\"read_ops\":" << r.io.read_ops
       << ",\"write_ops\":" << r.io.write_ops
       << ",\"blocks_read\":" << r.io.blocks_read
       << ",\"blocks_written\":" << r.io.blocks_written
       << ",\"retries\":" << r.io.retries << "}"
       << ",\"net\":{\"wire_bytes\":" << r.net.wire_bytes
       << ",\"data_sent\":" << r.net.data_sent
       << ",\"retransmissions\":" << r.net.retransmissions
       << ",\"delivered_messages\":" << r.net.delivered_messages << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace emcgm::svc
