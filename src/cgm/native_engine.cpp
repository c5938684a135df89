#include "cgm/native_engine.h"

#include <algorithm>

#include "cgm/proc_ctx.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/balanced_routing.h"
#include "util/error.h"
#include "util/timer.h"

namespace emcgm::cgm {

namespace {

// Guard against programs that never report done().
constexpr std::uint64_t kMaxRounds = 1u << 20;

}  // namespace

void record_step_comm(StepComm& step, const std::vector<Message>& delivered,
                      std::uint32_t v) {
  std::vector<std::uint64_t> sent(v, 0), recv(v, 0);
  for (const auto& m : delivered) {
    const std::uint64_t n = m.payload.size();
    if (n == 0) continue;
    step.messages += 1;
    step.bytes += n;
    sent[m.src] += n;
    recv[m.dst] += n;
    step.min_msg_bytes = std::min(step.min_msg_bytes, n);
    step.max_msg_bytes = std::max(step.max_msg_bytes, n);
  }
  for (std::uint32_t i = 0; i < v; ++i) {
    step.max_sent = std::max(step.max_sent, sent[i]);
    step.max_recv = std::max(step.max_recv, recv[i]);
    if (sent[i] > 0) step.min_sent = std::min(step.min_sent, sent[i]);
    if (recv[i] > 0) step.min_recv = std::min(step.min_recv, recv[i]);
  }
}

NativeEngine::NativeEngine(MachineConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  if (cfg_.obs.trace) {
    tracer_ = std::make_unique<obs::Tracer>(1);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
}

NativeEngine::~NativeEngine() = default;

std::vector<PartitionSet> NativeEngine::run(
    const Program& program, std::vector<PartitionSet> inputs) {
  Timer timer;
  const std::uint32_t v = cfg_.v;
  RunResult result;

  // Build the virtual processors.
  std::vector<ProcCtx> ctxs;
  ctxs.reserve(v);
  std::vector<std::unique_ptr<ProcState>> states;
  states.reserve(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    ctxs.emplace_back(j, v, cfg_.seed);
    states.push_back(program.make_state());
  }

  // Distribute input slots.
  for (const auto& slot : inputs) {
    EMCGM_CHECK_MSG(slot.parts.size() == v,
                    "input PartitionSet must have v parts");
  }
  for (std::uint32_t j = 0; j < v; ++j) {
    std::vector<std::vector<std::byte>> mine;
    mine.reserve(inputs.size());
    for (auto& slot : inputs) mine.push_back(std::move(slot.parts[j]));
    ctxs[j].set_inputs(std::move(mine));
  }

  std::vector<std::vector<Message>> inboxes(v);
  bool all_done = false;

  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const shard = tr ? &tr->host_shard(0) : nullptr;
  std::uint64_t phys = 0;  ///< physical superstep counter (metrics rows)
  Timer step_timer;
  auto record_metrics = [&](std::uint64_t round, const char* phase_label,
                            const StepComm* comm) {
    if (!metrics_) return;
    obs::SuperstepMetrics m;
    m.step = phys;
    m.round = round;
    m.phase = phase_label;
    if (comm) {
      m.has_comm = true;
      m.comm = *comm;
    }
    m.wall_s = step_timer.elapsed_s();
    m.end_ns = tr->now_ns();
    metrics_->record(std::move(m));
    step_timer.reset();
  };

  for (std::uint64_t round = 0; !all_done; ++round) {
    EMCGM_CHECK_MSG(round < kMaxRounds,
                    "program '" << program.name() << "' exceeded "
                                << kMaxRounds << " rounds");

    obs::SpanScope round_span(tr, shard, obs::SpanKind::kSuperstep, 0, 0, -1,
                              -1, phys, round);

    // Computation phase of the compound superstep.
    std::vector<std::vector<Message>> outboxes(v);
    bool any_done = false;
    all_done = true;
    for (std::uint32_t j = 0; j < v; ++j) {
      const std::size_t inbox_msgs = inboxes[j].size();
      obs::SpanScope span(tr, shard, obs::SpanKind::kCompute, 0, j, -1, j,
                          phys, round);
      ctxs[j].begin_superstep(round, std::move(inboxes[j]));
      inboxes[j].clear();
      program.round(ctxs[j], *states[j]);
      outboxes[j] = ctxs[j].take_outbox();
      span.set_aux(inbox_msgs, outboxes[j].size());
      const bool d = program.done(ctxs[j], *states[j]);
      any_done = any_done || d;
      all_done = all_done && d;
    }
    EMCGM_CHECK_MSG(any_done == all_done,
                    "program '" << program.name()
                                << "' disagreed on termination at round "
                                << round);
    if (round == 0) {
      for (auto& c : ctxs) c.clear_inputs();
    }
    result.app_rounds += 1;

    if (all_done) {
      for (std::uint32_t j = 0; j < v; ++j) {
        EMCGM_CHECK_MSG(outboxes[j].empty(),
                        "program '" << program.name()
                                    << "' sent messages in its final round");
      }
      record_metrics(round, "final", nullptr);
      ++phys;
      break;
    }

    // Communication phase: either one direct h-relation or the two balanced
    // rounds of Algorithm 1.
    if (!cfg_.balanced_routing) {
      StepComm step;
      std::vector<Message> delivered;
      for (auto& ob : outboxes) {
        for (auto& m : ob) delivered.push_back(std::move(m));
      }
      record_step_comm(step, delivered, v);
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kDeliver, 0, 0, -1, -1,
                            phys, round);
        span.set_aux(step.messages, step.bytes);
        for (auto& m : delivered) inboxes[m.dst].push_back(std::move(m));
      }
      result.comm.steps.push_back(step);
      result.comm_steps += 1;
      record_metrics(round, "compute", &step);
      ++phys;
    } else {
      // Round A: source -> intermediate.
      StepComm step_a;
      std::vector<std::vector<Message>> inter_inbox(v);
      {
        std::vector<Message> delivered;
        for (std::uint32_t i = 0; i < v; ++i) {
          for (auto& m : routing::encode_phase_a(v, i, outboxes[i])) {
            delivered.push_back(std::move(m));
          }
        }
        record_step_comm(step_a, delivered, v);
        obs::SpanScope span(tr, shard, obs::SpanKind::kDeliver, 0, 0, -1, -1,
                            phys, round);
        span.set_aux(step_a.messages, step_a.bytes);
        for (auto& m : delivered) inter_inbox[m.dst].push_back(std::move(m));
      }
      result.comm.steps.push_back(step_a);
      result.comm_steps += 1;
      record_metrics(round, "compute", &step_a);
      ++phys;

      // Round B: intermediate -> final destination.
      StepComm step_b;
      {
        std::vector<Message> delivered;
        for (std::uint32_t k = 0; k < v; ++k) {
          for (auto& m :
               routing::transform_intermediate(v, k, inter_inbox[k])) {
            delivered.push_back(std::move(m));
          }
        }
        record_step_comm(step_b, delivered, v);
        obs::SpanScope span(tr, shard, obs::SpanKind::kDeliver, 0, 0, -1, -1,
                            phys, round);
        span.set_aux(step_b.messages, step_b.bytes);
        std::vector<std::vector<Message>> final_phys(v);
        for (auto& m : delivered) final_phys[m.dst].push_back(std::move(m));
        for (std::uint32_t j = 0; j < v; ++j) {
          inboxes[j] = routing::decode_phase_b(v, j, final_phys[j]);
        }
      }
      result.comm.steps.push_back(step_b);
      result.comm_steps += 1;
      record_metrics(round, "regroup", &step_b);
      ++phys;
    }
  }

  // Collect output slots.
  std::size_t num_slots = 0;
  for (const auto& c : ctxs) num_slots = std::max(num_slots, c.outputs().size());
  std::vector<PartitionSet> outputs(num_slots);
  for (auto& slot : outputs) slot.parts.resize(v);
  for (std::uint32_t j = 0; j < v; ++j) {
    auto& outs = ctxs[j].outputs();
    for (std::size_t k = 0; k < outs.size(); ++k) {
      outputs[k].parts[j] = std::move(outs[k]);
    }
  }

  result.wall_s = timer.elapsed_s();
  last_ = result;
  total_ += result;
  return outputs;
}

}  // namespace emcgm::cgm
