#include "emcgm/em_engine.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "cgm/proc_ctx.h"
#include "chaos/chaos_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pdm/checksum.h"
#include "routing/balanced_routing.h"
#include "util/error.h"
#include "util/timer.h"

namespace emcgm::em {

namespace {

constexpr std::uint64_t kMaxRounds = 1u << 20;
constexpr std::uint32_t kNoHost = 0xFFFFFFFF;

// Commit-record framing (superstep checkpointing): header, the membership
// epoch the boundary was committed under, the ownership map (group_host /
// alive) of that boundary, then the stores. Records are only ever read back
// by the engine that wrote them, so one version is accepted.
constexpr std::uint32_t kCkptMagic = 0x454D4B50;  // "EMKP"
constexpr std::uint32_t kCkptVersion = 3;

// Internal control flow only (never escapes this translation unit): one or
// more real processors were found dead — by a fail-stop crash of their own
// disks, an exhausted network link, or the heartbeat detector. The superstep
// loop catches it and runs the fail-over procedure (or rethrows `cause` when
// fail-over cannot help).
struct DeadProcsError {
  std::vector<std::uint32_t> procs;
  std::exception_ptr cause;
};

bool is_crash(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const IoError& io) {
    return io.kind() == IoErrorKind::kCrash;
  } catch (...) {
    return false;
  }
}

// Serialized context layout: inputs (round 0 only), program state, outputs.
std::vector<std::byte> pack_context(
    const std::vector<std::vector<std::byte>>& inputs,
    const cgm::ProcState& state,
    const std::vector<std::vector<std::byte>>& outputs) {
  WriteArchive ar;
  ar.put<std::uint64_t>(inputs.size());
  for (const auto& in : inputs) ar.put_bytes(in);
  state.save(ar);
  // Outputs go last so that state.load() consumes exactly its own bytes.
  // (We cannot put them before the state: load() reads a fixed field
  // sequence, so anything preceding it must have a known structure.)
  WriteArchive tail;
  tail.put<std::uint64_t>(outputs.size());
  for (const auto& o : outputs) tail.put_bytes(o);
  ar.write_raw(tail.buffer().data(), tail.size());
  return ar.take();
}

struct UnpackedContext {
  std::vector<std::vector<std::byte>> inputs;
  std::vector<std::vector<std::byte>> outputs;
};

UnpackedContext unpack_context(std::span<const std::byte> blob,
                               cgm::ProcState& state) {
  ReadArchive ar(blob);
  UnpackedContext ctx;
  const auto n_in = ar.get<std::uint64_t>();
  ctx.inputs.reserve(static_cast<std::size_t>(n_in));
  for (std::uint64_t k = 0; k < n_in; ++k) ctx.inputs.push_back(ar.get_bytes());
  state.load(ar);
  const auto n_out = ar.get<std::uint64_t>();
  ctx.outputs.reserve(static_cast<std::size_t>(n_out));
  for (std::uint64_t k = 0; k < n_out; ++k) {
    ctx.outputs.push_back(ar.get_bytes());
  }
  EMCGM_CHECK_MSG(ar.exhausted(), "context blob has trailing bytes");
  return ctx;
}

// The one wire format of superstep communication: the (src_g -> dst_g)
// message batch as a self-delimiting record. Records travel bare on every
// hop of every collective schedule; a relay reads the header to learn the
// record's flow (group_host_[src_g], group_host_[dst_g]).
void put_record(WriteArchive& ar, std::uint32_t src_g, std::uint32_t dst_g,
                const std::vector<cgm::Message>& batch) {
  ar.put<std::uint32_t>(src_g);
  ar.put<std::uint32_t>(dst_g);
  ar.put<std::uint64_t>(batch.size());
  for (const auto& m : batch) {
    ar.put<std::uint32_t>(m.src);
    ar.put<std::uint32_t>(m.dst);
    ar.put_bytes(m.payload);
  }
}

// The record body after its (src_g, dst_g) header.
void get_record_body(ReadArchive& ar, std::vector<cgm::Message>& batch) {
  const auto count = ar.get<std::uint64_t>();
  batch.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t k = 0; k < count; ++k) {
    cgm::Message m;
    m.src = ar.get<std::uint32_t>();
    m.dst = ar.get<std::uint32_t>();
    m.payload = ar.get_bytes();
    batch.push_back(std::move(m));
  }
}

}  // namespace

struct EmEngine::RealProc {
  std::unique_ptr<pdm::DiskArray> disks;
  pdm::TrackSpace space;
  std::unique_ptr<ContextStore> contexts;
  std::unique_ptr<MessageStore> messages;

  // Two alternating on-disk slots for superstep commit records, so a crash
  // while writing record k+1 leaves record k intact.
  struct CkptSlot {
    pdm::TrackRegion tracks;
    pdm::StripeCursor cursor;
    pdm::Extent extent{};

    CkptSlot(pdm::TrackSpace& space, std::uint32_t D)
        : tracks(space, 64), cursor(D) {}
  };
  std::optional<CkptSlot> ckpt[2];

  RealProc(const cgm::MachineConfig& cfg, std::uint32_t index,
           obs::Tracer* tracer) {
    std::string dir;
    if (cfg.backend == pdm::BackendKind::kFile) {
      // Multi-node layout: each real processor's disks under its own root
      // (separate filesystems); otherwise subdirectories of one file_dir.
      dir = cfg.file_roots.empty()
                ? cfg.file_dir + "/proc" + std::to_string(index)
                : cfg.file_roots[index];
    }
    pdm::DiskArrayOptions opts;
    opts.checksums = cfg.checksums;
    opts.retry = cfg.retry;
    opts.io_threads = cfg.io_threads;
    if (tracer) {
      opts.on_queue_depth = [tracer, index](std::size_t depth) {
        tracer->record_queue_depth(index, depth);
      };
    }
    const pdm::FaultPlan& plan = cfg.fault_per_proc.empty()
                                     ? cfg.fault
                                     : cfg.fault_per_proc[index];
    disks = pdm::make_disk_array(cfg.backend, cfg.disk, dir, opts, plan);
    // Capacity quota (chaos harness): applied at the innermost backend, so
    // a write that would grow any of this machine's disks past the quota
    // raises a typed IoError(kNoSpace).
    const std::uint64_t quota = cfg.chaos.disk_quota_per_proc.empty()
                                    ? cfg.chaos.disk_quota_bytes
                                    : cfg.chaos.disk_quota_per_proc[index];
    if (quota != 0) disks->set_quota_bytes(quota);
    reset_tracks();
  }

  // Run-scoped track space: drop the stores (and commit slots) of the
  // previous run, hand all their tracks back and re-create the commit slots
  // at the start of the space — the layout a fresh engine starts from. The
  // drain comes first: an aborted run may have left write-behind in flight
  // that would otherwise land on a track the next run reuses (its errors
  // belong to the discarded run).
  void reset_tracks() {
    try {
      disks->drain();
    } catch (const IoError&) {
      // casualty of the discarded run
    }
    contexts.reset();
    messages.reset();
    space.reset();
    ckpt[0].emplace(space, disks->num_disks());
    ckpt[1].emplace(space, disks->num_disks());
  }
};

// One store group's work during a computation superstep. A store group is
// indexed by the real processor that originally owned it; after a fail-over
// several groups can be driven by the same surviving host, but each group
// still reads and writes its own stores — which is why the outcome (and the
// final output) is independent of who executes it.
struct EmEngine::ProcOutcome {
  // outgoing physical messages grouped by owning store group
  std::vector<std::vector<cgm::Message>> by_owner;
  std::vector<char> done;  // per local vproc
  std::exception_ptr error;
};

// The cooperative run between start()/start_resume() and finish().
// Everything the old monolithic loop kept in locals lives here, so a
// scheduler can put the run down at any superstep barrier (by not calling
// step()) and pick it up arbitrarily later — between step() calls the
// engine is quiescent and this struct plus the committed boundary is the
// run's entire volatile state.
struct EmEngine::RunState {
  const cgm::Program* program = nullptr;
  Timer timer;  ///< whole-run wall clock (result.wall_s)
  cgm::RunResult result;

  std::uint64_t round = 0;
  Phase phase = Phase::kCompute;
  bool all_done = false;

  pdm::IoStats io_before;       ///< disk stats at start (delta -> result.io)
  net::NetStats net_before;     ///< wire stats at start (delta -> result.net)
  pdm::IoStats trace_mark;      ///< per-superstep I/O delta cursor
  net::NetStats net_step_mark;  ///< per-superstep wire delta cursor
  Timer step_timer;

  // No-progress watchdog (cfg.chaos.invariants): a high-water mark on the
  // (round, phase) key; see step().
  std::uint64_t wd_hw_round = 0;
  std::uint32_t wd_hw_phase = 0;
  bool wd_seen = false;
  std::uint32_t wd_stall = 0;
};

EmEngine::EmEngine(cgm::MachineConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  // Tracer first: RealProc disk arrays may carry a queue-depth probe into it.
  if (cfg_.obs.trace) {
    tracer_ = std::make_unique<obs::Tracer>(cfg_.p);
    if (!cfg_.obs.tenant.empty()) tracer_->set_tenant(cfg_.obs.tenant);
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  procs_.reserve(cfg_.p);
  for (std::uint32_t r = 0; r < cfg_.p; ++r) {
    procs_.push_back(std::make_unique<RealProc>(cfg_, r, tracer_.get()));
  }
  group_host_.resize(cfg_.p);
  std::iota(group_host_.begin(), group_host_.end(), 0u);
  alive_.assign(cfg_.p, 1);
}

EmEngine::~EmEngine() = default;

const pdm::IoStats& EmEngine::io_stats(std::uint32_t real_proc) const {
  EMCGM_CHECK(real_proc < cfg_.p);
  return procs_[real_proc]->disks->stats();
}

std::uint64_t EmEngine::tracks_used(std::uint32_t real_proc) const {
  EMCGM_CHECK(real_proc < cfg_.p);
  return procs_[real_proc]->disks->tracks_used();
}

pdm::DiskArray& EmEngine::disk_array(std::uint32_t real_proc) {
  EMCGM_CHECK(real_proc < cfg_.p);
  return *procs_[real_proc]->disks;
}

void EmEngine::set_disk_quota_bytes(std::uint32_t real_proc,
                                    std::uint64_t bytes) {
  EMCGM_CHECK(real_proc < cfg_.p);
  procs_[real_proc]->disks->set_quota_bytes(bytes);
}

void EmEngine::disarm_faults() {
  for (auto& rp : procs_) {
    if (auto* f = rp->disks->fault_injector()) f->disarm();
  }
}

std::uint32_t EmEngine::group_host(std::uint32_t g) const {
  EMCGM_CHECK(g < cfg_.p);
  return group_host_[g];
}

bool EmEngine::alive(std::uint32_t real_proc) const {
  EMCGM_CHECK(real_proc < cfg_.p);
  return alive_[real_proc] != 0;
}

std::uint64_t EmEngine::checkpoint_round() const {
  EMCGM_CHECK_MSG(commit_.valid, "no committed checkpoint");
  return commit_.round;
}

// -------------------------------------------------------------- commit ----

void EmEngine::commit(std::uint64_t round, Phase phase) {
  if (cfg_.chaos.invariants && commit_.valid) {
    // Commit boundaries must advance strictly: every commit follows a full
    // phase, so even a post-fail-over replay lands past the restored mark.
    const bool forward =
        round > commit_.round ||
        (round == commit_.round &&
         static_cast<std::uint32_t>(phase) >
             static_cast<std::uint32_t>(commit_.phase));
    if (!forward) {
      std::ostringstream os;
      os << "commit boundary (round " << round << ", phase "
         << static_cast<std::uint32_t>(phase)
         << ") does not advance past the committed (round " << commit_.round
         << ", phase " << static_cast<std::uint32_t>(commit_.phase) << ")";
      throw chaos::InvariantViolation(chaos::Invariant::kCommitMonotonic,
                                      os.str());
    }
  }
  const std::uint64_t seq = commit_.seq + 1;
  const int slot = static_cast<int>(seq % 2);
  // Every store group commits — including those of a dead machine, whose
  // disks survive it (remounted by the adopting survivor). A fail-stop crash
  // of one machine's disks must not abort the others' records: collect the
  // casualties and let the fail-over path deal with them. commit_ is only
  // advanced when every record landed, so a partial commit leaves the
  // previous boundary (in the other slot) authoritative.
  std::vector<std::uint32_t> crashed;
  std::exception_ptr cause;
  obs::Tracer* tr = tracer_.get();
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    auto& rp = *procs_[g];
    // Commit runs on the barrier thread; render the span on the group's
    // host so checkpoint cost shows up where the disks live.
    obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                        obs::SpanKind::kCommit, group_host_[g], g, g, -1,
                        phys_step_, round, &rp.disks->stats());
    try {
      WriteArchive ar;
      ar.put<std::uint32_t>(kCkptMagic);
      ar.put<std::uint32_t>(kCkptVersion);
      ar.put<std::uint64_t>(seq);
      ar.put<std::uint64_t>(round);
      ar.put<std::uint32_t>(static_cast<std::uint32_t>(phase));
      ar.put<std::uint64_t>(epoch_);
      for (std::uint32_t g2 = 0; g2 < cfg_.p; ++g2) {
        ar.put<std::uint32_t>(group_host_[g2]);
      }
      for (std::uint32_t q = 0; q < cfg_.p; ++q) {
        ar.put<std::uint32_t>(alive_[q] ? 1 : 0);
      }
      rp.contexts->save(ar);
      rp.messages->save(ar);
      ar.put<std::uint32_t>(pdm::crc32c(ar.buffer()));
      auto blob = ar.take();
      span.set_aux(blob.size());

      auto& ck = *rp.ckpt[slot];
      ck.cursor.reset();
      ck.extent = ck.cursor.alloc(blob.size(), rp.disks->block_bytes());
      pdm::write_striped(*rp.disks, ck.tracks, ck.extent, blob);
      rp.disks->sync();  // a boundary is committed only once it is durable
    } catch (const IoError& e) {
      if (e.kind() != IoErrorKind::kCrash) throw;
      crashed.push_back(g);
      if (!cause) cause = std::current_exception();
    }
  }
  if (!crashed.empty()) {
    if (cfg_.net.failover) throw DeadProcsError{std::move(crashed), cause};
    std::rethrow_exception(cause);
  }
  commit_ = Commit{true, seq, round, phase};
}

void EmEngine::restore_from_commit() {
  EMCGM_CHECK_MSG(commit_.valid, "no committed checkpoint to resume from");
  // Quiesce every async executor before touching the disks: the aborted
  // superstep may have left write-behind errors pending, and they belong to
  // the timeline the replay is about to discard — they must not resurface
  // out of the restore's own reads.
  for (auto& rp : procs_) {
    try {
      rp->disks->drain();
    } catch (const IoError&) {
      // casualty of the aborted superstep
    }
  }
  const int slot = static_cast<int>(commit_.seq % 2);
  obs::Tracer* tr = tracer_.get();
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    auto& rp = procs_[g];
    obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                        obs::SpanKind::kRecovery, group_host_[g], g, g, -1,
                        phys_step_, commit_.round, &rp->disks->stats());
    EMCGM_CHECK_MSG(rp->contexts && rp->messages,
                    "resume() before run() set up the stores");
    auto& ck = *rp->ckpt[slot];
    std::vector<std::byte> blob(ck.extent.bytes);
    pdm::read_striped(*rp->disks, ck.tracks, ck.extent, blob);

    EMCGM_CHECK_MSG(blob.size() > 4, "commit record truncated");
    const auto body =
        std::span<const std::byte>(blob.data(), blob.size() - 4);
    std::uint32_t stored_crc;
    std::memcpy(&stored_crc, blob.data() + blob.size() - 4, 4);
    if (stored_crc != pdm::crc32c(body)) {
      throw IoError(IoErrorKind::kCorruption,
                    "commit record checksum mismatch");
    }
    ReadArchive ar(body);
    const auto magic = ar.get<std::uint32_t>();
    const auto version = ar.get<std::uint32_t>();
    if (magic != kCkptMagic || version != kCkptVersion) {
      throw IoError(IoErrorKind::kCorruption,
                    "commit record has bad magic/version");
    }
    const auto seq = ar.get<std::uint64_t>();
    const auto round = ar.get<std::uint64_t>();
    const auto phase = ar.get<std::uint32_t>();
    EMCGM_CHECK_MSG(seq == commit_.seq && round == commit_.round &&
                        phase == static_cast<std::uint32_t>(commit_.phase),
                    "commit record does not match the in-memory commit mark");
    // Membership epoch: the epoch under which the boundary was taken. A
    // fail-over bumps the epoch *before* restoring the record committed
    // under the old epoch, so the recorded value is a floor, not an
    // equality.
    const auto rec_epoch = ar.get<std::uint64_t>();
    EMCGM_CHECK_MSG(rec_epoch <= epoch_,
                    "commit record from a future membership epoch");
    // Ownership map: who hosted each store group at this boundary. The
    // in-memory map is authoritative — a fail-over re-assigns hosts *before*
    // restoring, and the restore must not undo that — so the recorded map is
    // only validated, not applied.
    for (std::uint32_t g = 0; g < cfg_.p; ++g) {
      const auto host = ar.get<std::uint32_t>();
      EMCGM_CHECK_MSG(host < cfg_.p, "commit record names a bad group host");
    }
    for (std::uint32_t q = 0; q < cfg_.p; ++q) {
      const auto a = ar.get<std::uint32_t>();
      EMCGM_CHECK_MSG(a <= 1, "commit record has a bad liveness flag");
    }
    rp->contexts->load(ar);
    rp->messages->load(ar);
    EMCGM_CHECK_MSG(ar.exhausted(), "commit record has trailing bytes");
  }
}

// ---------------------------------------------------------- membership ----

void EmEngine::bump_epoch() {
  ++epoch_;
  if (net_) net_->set_epoch(epoch_);
  if (tracer_) tracer_->record_membership_epoch(epoch_);
  rebuild_schedule();
}

void EmEngine::rebuild_schedule() {
  sched_.reset();
  next_hop_.clear();
  if (!net_) return;
  std::vector<std::uint32_t> hosts;
  for (std::uint32_t q = 0; q < cfg_.p; ++q) {
    if (alive_[q]) hosts.push_back(q);
  }
  routing::ScheduleKind kind = cfg_.net.schedule;
  if (kind == routing::ScheduleKind::kCustom) {
    // User-supplied schedule JSON. At run start (epoch 0, full membership)
    // it must cover exactly this machine — anything else is a typed
    // configuration error before a byte moves. A later membership epoch
    // cannot re-derive a hand-written host set, so the run falls back to
    // the direct schedule for its remaining epochs (documented policy,
    // NetConfig::custom_schedule_json): the schedule shape only changes the
    // wire layout, never the delivered bytes, so the fall-back preserves
    // bit-identical output. The JSON's own "kind" label is free — a ring
    // exported by tools/schedule_check replays fine as kCustom.
    routing::CommSchedule s =
        routing::parse_schedule_json(cfg_.net.custom_schedule_json);
    if (s.p == cfg_.p && s.hosts == hosts) {
      sched_ = std::move(s);
    } else if (epoch_ == 0) {
      std::ostringstream os;
      os << "custom schedule covers p=" << s.p << " with " << s.hosts.size()
         << " hosts but the machine has p=" << cfg_.p << " with "
         << hosts.size() << " live hosts at run start";
      throw IoError(IoErrorKind::kConfig, os.str());
    } else {
      kind = routing::ScheduleKind::kDirect;  // membership changed
    }
  }
  if (!sched_) {
    sched_ = routing::make_schedule(
        kind, cfg_.p, hosts,
        routing::machines_from_roots(cfg_.p, cfg_.file_roots));
  }
  // Safety net: every schedule — direct included — must pass the model
  // checker before the engine routes a byte through it. Throws typed
  // IoError(kConfig).
  routing::verify_schedule(*sched_);
  const std::size_t pp = static_cast<std::size_t>(cfg_.p) * cfg_.p;
  next_hop_.assign(sched_->steps.size(),
                   std::vector<std::uint32_t>(pp, kNoHost));
  for (std::size_t si = 0; si < sched_->steps.size(); ++si) {
    for (const routing::Transfer& t : sched_->steps[si].transfers) {
      for (const routing::Flow& fl : t.flows) {
        next_hop_[si][static_cast<std::size_t>(fl.first) * cfg_.p +
                      fl.second] = t.dst;
      }
    }
  }
}

std::vector<std::uint32_t> EmEngine::rebalance_groups() const {
  // Home placement first: a group whose original owner is alive stays (or
  // returns) home — its disks live there, so the placement is free — and
  // seeds that host's load. Orphans are then spread greedily, group id
  // ascending, onto the least-loaded live host (ties to the lowest id).
  // The result is a pure function of the alive set: every replica of the
  // run — whatever its threading mode — rebalances identically, the
  // max-min load difference is at most 1, and only groups that *must*
  // move (or can go home) ever change host.
  std::vector<std::uint32_t> host(cfg_.p, kNoHost);
  std::vector<std::uint32_t> load(cfg_.p, 0);
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    if (!alive_[g]) continue;
    host[g] = g;
    ++load[g];
  }
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    if (host[g] != kNoHost) continue;
    std::uint32_t best = kNoHost;
    for (std::uint32_t h = 0; h < cfg_.p; ++h) {
      if (!alive_[h]) continue;
      if (best == kNoHost || load[h] < load[best]) best = h;
    }
    EMCGM_ASSERT(best != kNoHost);
    host[g] = best;
    ++load[best];
  }
  return host;
}

void EmEngine::verify_spread() const {
  if (!cfg_.chaos.invariants) return;
  std::vector<std::uint32_t> load(cfg_.p, 0);
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    const std::uint32_t h = group_host_[g];
    if (h >= cfg_.p || !alive_[h]) {
      throw chaos::InvariantViolation(
          chaos::Invariant::kSpread,
          "store group " + std::to_string(g) + " assigned to dead host " +
              std::to_string(h));
    }
    ++load[h];
  }
  std::uint32_t lo = 0xFFFFFFFF, hi = 0;
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    if (!alive_[h]) continue;
    lo = std::min(lo, load[h]);
    hi = std::max(hi, load[h]);
  }
  if (hi > lo + 1) {
    std::ostringstream os;
    os << "store-group spread over live hosts is " << (hi - lo)
       << " (min load " << lo << ", max load " << hi << "); rebalance must"
       << " keep it <= 1";
    throw chaos::InvariantViolation(chaos::Invariant::kSpread, os.str());
  }
}

void EmEngine::verify_drained(const char* where) const {
  if (!cfg_.chaos.invariants) return;
  for (std::uint32_t r = 0; r < cfg_.p; ++r) {
    const std::uint64_t pending = procs_[r]->disks->in_flight();
    if (pending != 0) {
      std::ostringstream os;
      os << "real processor " << r << " has " << pending
         << " write-behind blocks in flight at " << where
         << "; deferred I/O must never cross a superstep barrier";
      throw chaos::InvariantViolation(chaos::Invariant::kExecutorDrain,
                                      os.str());
    }
  }
}

std::vector<std::byte> EmEngine::read_commit_blob(std::uint32_t g) {
  auto& rp = *procs_[g];
  auto& ck = *rp.ckpt[static_cast<int>(commit_.seq % 2)];
  std::vector<std::byte> blob(ck.extent.bytes);
  pdm::read_striped(*rp.disks, ck.tracks, ck.extent, blob);
  return blob;
}

void EmEngine::validate_commit_record(std::uint32_t g,
                                      std::span<const std::byte> blob) const {
  // Checkpoint catch-up on the receiving side of a hand-over: the stores
  // themselves are not loaded from the migrated copy — the group's own
  // disks are authoritative and the new host reads them directly — but a
  // host handing over a stale or torn record must be caught here, not a
  // superstep later.
  EMCGM_CHECK_MSG(blob.size() > 4, "migrated commit record truncated");
  const auto body = std::span<const std::byte>(blob.data(), blob.size() - 4);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, blob.data() + blob.size() - 4, 4);
  if (stored_crc != pdm::crc32c(body)) {
    throw IoError(IoErrorKind::kCorruption,
                  "migrated commit record checksum mismatch");
  }
  ReadArchive ar(body);
  const auto magic = ar.get<std::uint32_t>();
  const auto version = ar.get<std::uint32_t>();
  if (magic != kCkptMagic || version != kCkptVersion) {
    throw IoError(IoErrorKind::kCorruption,
                  "migrated commit record has bad magic/version");
  }
  const auto seq = ar.get<std::uint64_t>();
  EMCGM_CHECK_MSG(seq == commit_.seq,
                  "group " << g << " migrated a stale commit record (seq "
                           << seq << ", committed " << commit_.seq << ")");
}

std::uint64_t EmEngine::migrate_groups(
    const std::vector<std::uint32_t>& old_host, std::uint64_t round) {
  // The group's state lives on its own disks — the new host simply remounts
  // them — so a hand-over moves no context or message bytes. What crosses
  // the wire is the catch-up: a live old host streams the group's committed
  // record to the new host through the staged mailbox path, and the new
  // host validates it against the in-memory commit mark before taking the
  // group. A dead old host cannot stream anything; its groups are adopted
  // straight off their surviving disks (no wire traffic, counted as
  // migrations all the same). Groups are handed over in ascending order at
  // the barrier, so the round's wire activity is canonical in every
  // threading mode.
  std::vector<std::uint32_t> moved;
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    if (old_host[g] != group_host_[g]) moved.push_back(g);
  }
  if (moved.empty()) return 0;
  obs::Tracer* tr = tracer_.get();
  obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                      obs::SpanKind::kRebalance, tr ? tr->engine_pid() : 0, 0,
                      -1, -1, phys_step_, round);
  std::uint64_t wire_bytes = 0;
  net_->begin_round();
  for (std::uint32_t g : moved) {
    const std::uint32_t from = old_host[g];
    std::uint64_t record_bytes = 0;
    if (alive_[from]) {
      auto blob = read_commit_blob(g);
      record_bytes = blob.size();
      WriteArchive ar;
      ar.put<std::uint32_t>(g);
      ar.put_bytes(blob);
      net_->post(from, group_host_[g], ar.take());
    }
    net_->count_migration(record_bytes);
    wire_bytes += record_bytes;
  }
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    if (alive_[h]) net_->finish_sender(h);
  }
  // A cascading loss during the hand-over round itself is unrecoverable
  // from here (this may already be the fail-over path); let it surface.
  auto inboxes = net_->collect();
  for (std::uint32_t h = 0; h < cfg_.p; ++h) {
    std::vector<std::vector<std::byte>> stream_from(cfg_.p);
    for (auto& d : inboxes[h]) {
      auto& s = stream_from[d.src];
      s.insert(s.end(), d.payload.begin(), d.payload.end());
    }
    for (std::uint32_t hs = 0; hs < cfg_.p; ++hs) {
      if (stream_from[hs].empty()) continue;
      ReadArchive ar(stream_from[hs]);
      while (!ar.exhausted()) {
        const auto g = ar.get<std::uint32_t>();
        EMCGM_CHECK_MSG(g < cfg_.p && group_host_[g] == h,
                        "migrated commit record misrouted");
        const auto blob = ar.get_bytes();
        validate_commit_record(g, blob);
      }
    }
  }
  span.set_aux(moved.size(), wire_bytes);
  return wire_bytes;
}

std::uint64_t EmEngine::try_rejoin(std::uint64_t round,
                                   cgm::RunResult& result) {
  if (!cfg_.net.rejoin || !net_ || !commit_.valid) return 0;
  const auto candidates = net_->rejoin_round(phys_step_, epoch_, commit_.seq);
  if (candidates.empty()) return 0;
  obs::Tracer* tr = tracer_.get();
  obs::SpanScope span(tr, tr ? &tr->engine_shard() : nullptr,
                      obs::SpanKind::kRejoin, tr ? tr->engine_pid() : 0, 0,
                      -1, -1, phys_step_, round);
  // Re-admission runs at the barrier, before the superstep opens. The
  // returner's disks hold exactly the committed state (the layout never
  // moved while it was gone), the acks told it the committed superstep id,
  // and the catch-up — the committed record of every group it takes back,
  // streamed by the current host and validated on arrival — happens in the
  // hand-over round. Nothing else needs restoring: at a barrier the live
  // stores *are* the committed state.
  for (std::uint32_t q : candidates) {
    alive_[q] = 1;
    net_->mark_alive(q);
  }
  bump_epoch();
  const std::vector<std::uint32_t> old_host = group_host_;
  group_host_ = rebalance_groups();
  verify_spread();
  net_->reset_links();
  const std::uint64_t record_bytes = migrate_groups(old_host, round);
  net_->count_rejoins(candidates.size());
  result.rejoins += candidates.size();
  span.set_aux(candidates.size(), record_bytes);
  return candidates.size();
}

// ------------------------------------------------------------ fail-over ---

void EmEngine::failover(const std::vector<std::uint32_t>& dead_procs,
                        std::exception_ptr cause, cgm::RunResult& result) {
  auto unrecoverable = [&](const char* why) {
    if (cause) std::rethrow_exception(cause);
    throw Error(std::string("fail-over impossible: ") + why);
  };
  if (!cfg_.net.failover || !net_) unrecoverable("fail-over is disabled");
  if (!commit_.valid) {
    unrecoverable("a real processor died before the first committed boundary");
  }

  bool any_new = false;
  for (std::uint32_t q : dead_procs) {
    EMCGM_CHECK(q < cfg_.p);
    if (!alive_[q]) continue;
    any_new = true;
    alive_[q] = 0;
    net_->mark_dead(q);
    // The machine is gone but its disks survive; the adopting survivor
    // remounts them, which ends the dead machine's injected fault schedule.
    if (auto* f = procs_[q]->disks->fault_injector()) f->disarm();
  }
  if (!any_new) unrecoverable("declared-dead processors were already dead");

  std::uint32_t live = 0;
  for (char a : alive_) live += a ? 1 : 0;
  if (live == 0) {
    // Total wipe-out: every real processor died in the same superstep, so
    // there is no survivor to degrade onto — the run aborts typed. But a
    // committed boundary exists (checked above) and commit records always
    // live on each group's *original* disks, so the machine is left in the
    // same shape a fresh run would find: everybody nominally alive, groups
    // home, links reset. A caller that repairs the fault (disarm_faults /
    // quota bump) can then resume() from the intact checkpoint to
    // bit-identical output; one whose fault plan re-kills the replay gets
    // the same typed failure again. Identical under every collective
    // schedule: rebuild_schedule() (via bump_epoch) re-derives over the
    // full host set.
    for (std::uint32_t q = 0; q < cfg_.p; ++q) {
      alive_[q] = 1;
      net_->mark_alive(q);
    }
    std::iota(group_host_.begin(), group_host_.end(), 0u);
    bump_epoch();
    net_->reset_links();
    unrecoverable("no surviving real processor");
  }

  // Membership changed: new epoch (fresh, independent fault-coin streams on
  // every link) and a full deterministic re-spread of the store groups over
  // the survivors — two runs with the same fault schedule degrade
  // identically, and the groups-per-live-host spread stays within 1.
  bump_epoch();
  const std::vector<std::uint32_t> old_host = group_host_;
  group_host_ = rebalance_groups();
  verify_spread();

  // Leftovers of the aborted superstep must not reach the replay.
  net_->reset_links();

  result.failovers += 1;
  restore_from_commit();
  // Hand over the groups that changed host. The dead machines' groups are
  // adopted off their surviving disks; a group moving between two live
  // survivors (the greedy spread can shift an orphan when the host set
  // shrinks) gets its committed record streamed and re-validated.
  migrate_groups(old_host, commit_.round);
}

// ----------------------------------------------------------------- run ----

std::vector<cgm::PartitionSet> EmEngine::run(
    const cgm::Program& program, std::vector<cgm::PartitionSet> inputs) {
  start(program, std::move(inputs));
  while (step()) {
  }
  return finish();
}

void EmEngine::set_io_charge_hook(pdm::IoChargeFn fn) {
  io_charge_ = std::move(fn);
  // Disk arrays persist across runs, so installing on them once covers
  // every current and future run of this engine.
  for (auto& rp : procs_) rp->disks->set_charge_hook(io_charge_);
}

void EmEngine::set_net_charge_hook(net::NetChargeFn fn) {
  net_charge_ = std::move(fn);
  if (net_) net_->set_charge_hook(net_charge_);
}

void EmEngine::set_net_job_tag(std::uint64_t tag) {
  net_job_tag_ = tag;
  if (net_) net_->set_job_tag(tag);
}

/// RAII re-entrancy check on the cooperative API: one EmEngine is
/// single-driver (see the thread-safety note in em_engine.h); concurrent
/// entry into the same engine fails loudly here instead of racing.
class EmEngine::ApiGuard {
 public:
  ApiGuard(std::atomic<bool>& busy, const char* what) : busy_(busy) {
    EMCGM_CHECK_MSG(
        !busy_.exchange(true, std::memory_order_acquire),
        what << "() entered while another cooperative-API call is running on"
                " this engine — one engine is single-driver; step distinct"
                " engines from distinct threads instead");
  }
  ~ApiGuard() { busy_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool>& busy_;
};

void EmEngine::start(const cgm::Program& program,
                     std::vector<cgm::PartitionSet> inputs) {
  ApiGuard guard(busy_, "start");
  rs_.reset();  // discard any previous unfinished cooperative run
  const std::uint32_t v = cfg_.v;
  const std::uint32_t p = cfg_.p;
  const std::uint32_t nloc = nlocal();

  commit_ = Commit{};
  running_program_ = program.name();
  for (auto& rp : procs_) rp->reset_tracks();

  // Fresh membership per run: every machine alive, every store group hosted
  // by its original owner, the physical superstep clock and the membership
  // epoch at zero.
  std::iota(group_host_.begin(), group_host_.end(), 0u);
  alive_.assign(p, 1);
  phys_step_ = 0;
  epoch_ = 0;
  net_.reset();
  if (cfg_.net.enabled && p > 1) {
    net_ = std::make_unique<net::SimNetwork>(p, cfg_.net);
    net_->set_machine_map(routing::machines_from_roots(p, cfg_.file_roots));
    if (tracer_) net_->set_tracer(tracer_.get());
    if (tracer_) tracer_->record_membership_epoch(0);
    net_->set_job_tag(net_job_tag_);
    if (net_charge_) net_->set_charge_hook(net_charge_);
  }
  rebuild_schedule();

  pdm::IoStats io_before;
  for (auto& rp : procs_) io_before += rp->disks->stats();

  // ------------------------------------------------------------- set-up --
  for (const auto& slot : inputs) {
    EMCGM_CHECK_MSG(slot.parts.size() == v,
                    "input PartitionSet must have v parts");
  }
  // Fresh stores per run on the freshly reset track space; the disk arrays
  // (and their statistics) persist.
  for (std::uint32_t r = 0; r < p; ++r) {
    auto& rp = *procs_[r];
    rp.contexts = std::make_unique<ContextStore>(*rp.disks, rp.space, nloc);
    rp.messages =
        std::make_unique<MessageStore>(*rp.disks, rp.space, r * nloc, nloc);
  }

  // Write initial contexts: the input partitions plus a fresh program state.
  {
    const auto fresh = program.make_state();
    WriteArchive probe;
    fresh->save(probe);  // ensure save() works on a default state up front
  }
  {
    obs::Tracer* tr = tracer_.get();
    obs::SpanScope setup_span(tr, tr ? &tr->engine_shard() : nullptr,
                              obs::SpanKind::kContextWrite, tr ? tr->p() : 0,
                              0, -1, -1, phys_step_, 0);
    for (std::uint32_t g = 0; g < v; ++g) {
      std::vector<std::vector<std::byte>> mine;
      mine.reserve(inputs.size());
      for (auto& slot : inputs) mine.push_back(std::move(slot.parts[g]));
      const auto state = program.make_state();
      const auto blob = pack_context(mine, *state, {});
      procs_[owner_of(g)]->contexts->write(g % nloc, blob);
    }
    for (auto& rp : procs_) rp->contexts->flip();
  }

  // Superstep 0 is now recoverable: the inputs live on disk. A machine that
  // dies this early took uncommitted inputs with it — nothing to fail over
  // to, so surface the underlying fault.
  if (cfg_.checkpointing) {
    try {
      commit(0, Phase::kCompute);
    } catch (const DeadProcsError& e) {
      if (e.cause) std::rethrow_exception(e.cause);
      throw Error("real processor died during the initial commit");
    }
  }

  begin_loop(program, 0, Phase::kCompute, io_before);
}

std::vector<cgm::PartitionSet> EmEngine::resume(const cgm::Program& program) {
  start_resume(program);
  while (step()) {
  }
  return finish();
}

void EmEngine::start_resume(const cgm::Program& program) {
  ApiGuard guard(busy_, "start_resume");
  rs_.reset();
  EMCGM_CHECK_MSG(cfg_.checkpointing,
                  "resume() requires cfg.checkpointing = true");
  EMCGM_CHECK_MSG(program.name() == running_program_,
                  "resume() must be called with the program passed to run()"
                  " (got '" << program.name() << "', ran '"
                            << running_program_ << "')");
  restore_from_commit();

  pdm::IoStats io_before;
  for (auto& rp : procs_) io_before += rp->disks->stats();
  begin_loop(program, commit_.round, commit_.phase, io_before);
}

void EmEngine::begin_loop(const cgm::Program& program,
                          std::uint64_t start_round, Phase start_phase,
                          const pdm::IoStats& io_before) {
  rs_ = std::make_unique<RunState>();
  rs_->program = &program;
  rs_->round = start_round;
  rs_->phase = start_phase;
  rs_->all_done = (start_phase == Phase::kDone);
  rs_->io_before = io_before;
  // The first superstep's recorded I/O delta deliberately includes any
  // setup I/O between io_before and here (initial context writes, initial
  // commit) — unchanged from the monolithic loop.
  rs_->trace_mark = io_before;
  rs_->net_before = net_ ? net_->stats() : net::NetStats{};
  rs_->net_step_mark = rs_->net_before;
}

// ----------------------------------------------------------- superstep ----

void EmEngine::record_step_io(RunState& rs, const char* phase_label,
                              bool has_comm, std::uint64_t step_round) {
  // Per-superstep I/O trace: delta of the summed disk statistics. With
  // observability on, the same barrier also snapshots one MetricsRegistry
  // row — IoStats/StepComm/NetStats deltas plus the cost model's predicted
  // I/O seconds for the counted ops, against the measured step wall clock.
  pdm::IoStats now;
  for (auto& rp : procs_) now += rp->disks->stats();
  const pdm::IoStats delta = now - rs.trace_mark;
  rs.result.io_per_step.push_back(delta);
  rs.trace_mark = now;
  if (metrics_) {
    obs::SuperstepMetrics m;
    m.step = phys_step_;
    m.round = step_round;
    m.phase = phase_label;
    m.io = delta;
    if (has_comm && !rs.result.comm.steps.empty()) {
      m.has_comm = true;
      m.comm = rs.result.comm.steps.back();
    }
    if (net_) {
      const net::NetStats net_now = net_->stats();
      m.net = net_now - rs.net_step_mark;
      rs.net_step_mark = net_now;
    }
    m.wall_s = rs.step_timer.elapsed_s();
    m.model_io_s = pdm::DiskCostModel{}.io_seconds(delta,
                                                   cfg_.disk.block_bytes);
    m.end_ns = tracer_->now_ns();
    metrics_->record(std::move(m));
  }
  rs.step_timer.reset();
}

void EmEngine::simulate_real_proc(RunState& rs, std::uint32_t r,
                                  ProcOutcome& out) {
  const cgm::Program& program = *rs.program;
  const std::uint32_t v = cfg_.v;
  const std::uint32_t p = cfg_.p;
  const std::uint32_t nloc = nlocal();
  const bool balanced = cfg_.balanced_routing;
  obs::Tracer* const tr = tracer_.get();
  try {
    auto& rp = *procs_[r];
    // Span shard discipline: group r's spans go into the shard of the
    // *host driving it* — exactly one thread per host — while the span's
    // rendering coordinates stay with the group's disks.
    const std::uint32_t host = group_host_[r];
    obs::TraceShard* shard = tr ? &tr->host_shard(host) : nullptr;
    const pdm::IoStats* io_src = tr ? &rp.disks->stats() : nullptr;
    obs::SpanScope group_span(tr, shard, obs::SpanKind::kGroupStep, host, r,
                              r, -1, phys_step_, rs.round, io_src);
    out.by_owner.assign(p, {});
    out.done.assign(nloc, 0);
    // Prefetch window cursor: first local vproc whose context/inbox reads
    // have not been issued yet. Depth 1 (the default) reproduces the
    // pre-knob one-ahead pipeline exactly — same issue order, same spans.
    const std::uint32_t depth = cfg_.prefetch_depth;
    std::uint32_t pf = 1;
    for (std::uint32_t jl = 0; jl < nloc; ++jl) {
      const std::uint32_t g = r * nloc + jl;
      // (a) context in.
      auto state = program.make_state();
      UnpackedContext unpacked;
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kContextRead, host, r,
                            r, g, phys_step_, rs.round, io_src);
        const auto blob = rp.contexts->read(jl);
        unpacked = unpack_context(blob, *state);
      }
      // (b) messages in.
      std::vector<cgm::Message> inbox;
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kInboxRead, host, r,
                            r, g, phys_step_, rs.round, io_src);
        inbox = rp.messages->read_incoming(g);
        if (balanced && rs.round > 0) {
          inbox = routing::decode_phase_b(v, g, inbox);
        }
      }
      const std::size_t inbox_msgs = inbox.size();
      // Overlap: submit the *next* virtual processor's context and inbox
      // reads now, so the executor services them while this one computes.
      // Safe against this superstep's in-flight writes — context and
      // message writes both target the inactive side of their double
      // buffer (per-disk FIFO covers any same-disk pair regardless).
      // Serial arrays skip this: the prefetch would just execute the
      // reads early, changing nothing but span shapes.
      // A window of prefetch_depth vprocs is kept in flight; when the model
      // grants finite memory the window additionally stops once its context
      // bytes would exceed M/2, leaving the computing vproc its own
      // residency (cgm::MachineConfig::prefetch_depth). The cursor `pf`
      // guarantees each vproc's reads are issued exactly once per superstep
      // whatever the window shape.
      if (rp.disks->async() && jl + 1 < nloc) {
        std::uint32_t hi = std::min<std::uint32_t>(nloc - 1, jl + depth);
        if (cfg_.memory_bytes > 0 && depth > 1) {
          std::uint64_t budget = cfg_.memory_bytes / 2;
          std::uint32_t lim = jl + 1;  // one ahead is always allowed
          for (std::uint32_t k = jl + 1; k <= hi; ++k) {
            const std::uint64_t cb = rp.contexts->context_bytes(k);
            if (k > jl + 1 && cb > budget) break;
            budget -= std::min(budget, cb);
            lim = k;
          }
          hi = lim;
        }
        if (pf < jl + 1) pf = jl + 1;
        if (pf <= hi) {
          obs::SpanScope span(tr, shard, obs::SpanKind::kIoPrefetch, host, r,
                              r, g + 1, phys_step_, rs.round, io_src);
          for (; pf <= hi; ++pf) {
            rp.contexts->prefetch(pf);
            rp.messages->prefetch_incoming(r * nloc + pf);
          }
        }
      }
      // (c) compute.
      cgm::ProcCtx pctx(g, v, cfg_.seed);
      std::vector<cgm::Message> physical;
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kCompute, host, r, r,
                            g, phys_step_, rs.round);
        pctx.set_inputs(std::move(unpacked.inputs));
        pctx.outputs() = std::move(unpacked.outputs);
        pctx.begin_superstep(rs.round, std::move(inbox));
        program.round(pctx, *state);
        out.done[jl] = program.done(pctx, *state) ? 1 : 0;
        auto outbox = pctx.take_outbox();
        if (out.done[jl]) {
          EMCGM_CHECK_MSG(outbox.empty(),
                          "program '"
                              << program.name()
                              << "' sent messages in its final round");
        }
        span.set_aux(inbox_msgs, outbox.size());
        physical = balanced ? routing::encode_phase_a(v, g, outbox)
                            : std::move(outbox);
      }
      // (d) messages out. Locally addressed messages are written
      // immediately when p == 1 (Algorithm 2 order); with p > 1 everything
      // is delivered at superstep end (Algorithm 3: "upon arrival").
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kOutboxWrite, host, r,
                            r, g, phys_step_, rs.round, io_src);
        if (tr) {
          std::uint64_t bytes = 0;
          for (const auto& m : physical) bytes += m.payload.size();
          span.set_aux(physical.size(), bytes);
        }
        if (p == 1) {
          rp.messages->write_messages(physical);
        } else {
          for (auto& m : physical) {
            out.by_owner[owner_of(m.dst)].push_back(std::move(m));
          }
        }
      }
      // (e) context out (inputs are consumed by round 0).
      obs::SpanScope span(tr, shard, obs::SpanKind::kContextWrite, host, r,
                          r, g, phys_step_, rs.round, io_src);
      const auto new_blob = pack_context({}, *state, pctx.outputs());
      if (cfg_.memory_bytes > 0) {
        const std::size_t resident = new_blob.size() + pctx.resident_bytes();
        EMCGM_CHECK_MSG(resident <= cfg_.memory_bytes,
                        "virtual processor " << g << " needs " << resident
                                             << " bytes but M = "
                                             << cfg_.memory_bytes);
      }
      rp.contexts->write(jl, new_blob);
    }
    if (rp.disks->async()) {
      // Write-behind completion barrier, inside the try: a crash or fault
      // that fired on a deferred write surfaces here and is collected
      // exactly like a synchronous one, and the superstep's IoStats are
      // fully reaped before the barrier records them.
      obs::SpanScope span(tr, shard, obs::SpanKind::kIoDrain, host, r, r,
                          -1, phys_step_, rs.round, io_src);
      rp.disks->drain();
    }
  } catch (...) {
    out.error = std::current_exception();
  }
}

// Engine-side regrouping superstep of balanced routing (Lemma 2); touches
// only the message store — contexts are not read or written.
void EmEngine::regroup_real_proc(RunState& rs, std::uint32_t r,
                                 ProcOutcome& out) {
  const std::uint32_t v = cfg_.v;
  const std::uint32_t p = cfg_.p;
  const std::uint32_t nloc = nlocal();
  obs::Tracer* const tr = tracer_.get();
  try {
    auto& rp = *procs_[r];
    const std::uint32_t host = group_host_[r];
    obs::TraceShard* shard = tr ? &tr->host_shard(host) : nullptr;
    const pdm::IoStats* io_src = tr ? &rp.disks->stats() : nullptr;
    obs::SpanScope group_span(tr, shard, obs::SpanKind::kGroupStep, host, r,
                              r, -1, phys_step_, rs.round, io_src);
    out.by_owner.assign(p, {});
    const std::uint32_t depth = cfg_.prefetch_depth;
    std::uint32_t pf = 1;
    for (std::uint32_t jl = 0; jl < nloc; ++jl) {
      const std::uint32_t g = r * nloc + jl;
      std::vector<cgm::Message> inbox;
      {
        obs::SpanScope span(tr, shard, obs::SpanKind::kInboxRead, host, r,
                            r, g, phys_step_, rs.round, io_src);
        inbox = rp.messages->read_incoming(g);
      }
      // Overlap the next inbox fetches with this regrouping pass (same
      // safety argument and pf-cursor window as in the compute phase;
      // regrouping touches no contexts, so only the message store is
      // prefetched and the M/2 context bound does not apply).
      if (rp.disks->async() && jl + 1 < nloc) {
        const std::uint32_t hi =
            std::min<std::uint32_t>(nloc - 1, jl + depth);
        if (pf < jl + 1) pf = jl + 1;
        if (pf <= hi) {
          obs::SpanScope span(tr, shard, obs::SpanKind::kIoPrefetch, host, r,
                              r, g + 1, phys_step_, rs.round, io_src);
          for (; pf <= hi; ++pf) {
            rp.messages->prefetch_incoming(r * nloc + pf);
          }
        }
      }
      obs::SpanScope span(tr, shard, obs::SpanKind::kOutboxWrite, host, r,
                          r, g, phys_step_, rs.round, io_src);
      auto physical = routing::transform_intermediate(v, g, inbox);
      if (tr) {
        std::uint64_t bytes = 0;
        for (const auto& m : physical) bytes += m.payload.size();
        span.set_aux(physical.size(), bytes);
      }
      if (p == 1) {
        rp.messages->write_messages(physical);
      } else {
        for (auto& m : physical) {
          out.by_owner[owner_of(m.dst)].push_back(std::move(m));
        }
      }
    }
    if (rp.disks->async()) {
      obs::SpanScope span(tr, shard, obs::SpanKind::kIoDrain, host, r, r,
                          -1, phys_step_, rs.round, io_src);
      rp.disks->drain();
    }
  } catch (...) {
    out.error = std::current_exception();
  }
}

// Post one finished store group's crossing batches into the step-0 round
// of the collective schedule (p > 1, net enabled; called from the host's
// own worker thread). Each (g, dst_g) batch travels as one self-delimiting
// record on the step-0 link of its flow (host, group_host_[dst_g]); a flow
// the first step leaves in place keeps its batch in `out.by_owner` until
// deliver_staged relays it. Records are posted in (g, dst_g) order — each
// host drives its groups ascending and this loop scans dst_g ascending — so
// every link's mailbox stream is canonical whatever the thread interleaving.
// Posted batches stay in `out.by_owner` too: deliver_staged still counts
// the h-relation from them at the barrier, single-threaded, which is what
// keeps StepComm accumulation race-free without shadow counters.
void EmEngine::post_group(RunState& rs, std::uint32_t host, std::uint32_t g,
                          ProcOutcome& out) {
  const std::uint32_t p = cfg_.p;
  obs::Tracer* const tr = tracer_.get();
  obs::SpanScope span(tr, tr ? &tr->host_shard(host) : nullptr,
                      obs::SpanKind::kNetPost, host, g, g, -1, phys_step_,
                      rs.round);
  std::uint64_t posted_bytes = 0;
  for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
    const auto& batch = out.by_owner[dst_g];
    const std::uint32_t fin = group_host_[dst_g];
    if (batch.empty() || fin == host) continue;
    const std::uint32_t to = next_hop_[0][host * p + fin];
    if (to == kNoHost) continue;
    WriteArchive ar;
    put_record(ar, g, dst_g, batch);
    posted_bytes += ar.size();
    net_->post(host, to, ar.take());
  }
  span.set_aux(posted_bytes);
}

// Run one phase across all p store groups: one worker per *live* host,
// each driving the groups currently assigned to it (ascending, so the
// disk-op order per group is independent of the assignment). A fail-stop
// crash (IoError kCrash) out of group g's own disks means machine g died —
// adopted groups run disarmed and cannot crash — so crashes are collected
// into a DeadProcsError for the fail-over path; any other error rethrows
// (the open mailbox round is aborted either way so the fault-coin cursors
// stay mode-independent — see SimNetwork::abort_round). With the network
// enabled each host posts a group's step-0 records as soon as the group
// finishes, so the pump overlaps delivery with the remaining compute.
std::vector<EmEngine::ProcOutcome> EmEngine::run_phase(RunState& rs,
                                                       bool compute) {
  const std::uint32_t p = cfg_.p;
  std::vector<ProcOutcome> outcomes(p);
  auto drive_host = [&](std::uint32_t host) {
    for (std::uint32_t g = 0; g < p; ++g) {
      if (group_host_[g] != host) continue;
      if (compute) {
        simulate_real_proc(rs, g, outcomes[g]);
      } else {
        regroup_real_proc(rs, g, outcomes[g]);
      }
      if (net_ && !outcomes[g].error) post_group(rs, host, g, outcomes[g]);
    }
    if (net_) net_->finish_sender(host);
  };
  std::vector<std::uint32_t> hosts;
  for (std::uint32_t h = 0; h < p; ++h) {
    if (alive_[h]) hosts.push_back(h);
  }
  if (cfg_.use_threads && hosts.size() > 1) {
    std::vector<std::thread> threads;
    threads.reserve(hosts.size());
    for (std::uint32_t h : hosts) {
      threads.emplace_back([&, h] { drive_host(h); });
    }
    for (auto& t : threads) t.join();
  } else {
    for (std::uint32_t h : hosts) drive_host(h);
  }
  std::vector<std::uint32_t> crashed;
  std::exception_ptr cause;
  for (std::uint32_t g = 0; g < p; ++g) {
    if (!outcomes[g].error) continue;
    if (!is_crash(outcomes[g].error)) {
      if (net_) net_->abort_round();
      std::rethrow_exception(outcomes[g].error);
    }
    crashed.push_back(g);
    if (!cause) cause = outcomes[g].error;
  }
  if (!crashed.empty()) {
    if (net_) net_->abort_round();
    if (cfg_.net.failover) throw DeadProcsError{std::move(crashed), cause};
    std::rethrow_exception(cause);
  }
  return outcomes;
}

// Deliver staged messages (p > 1). Communication cost is attributed to
// *hosts*: a message crosses the network iff the hosts of its source and
// destination groups differ (identical to the old src_r != dst_r when the
// assignment is the identity). With the simulated network enabled, the
// crossing batches travel the verified collective schedule as records
// (put_record), one mailbox round per schedule step through the reliable
// protocol. Step 0 was posted during the phase (post_group) and is
// collected here; every later step runs at the barrier, each relay
// forwarding the records of the flows the step moves. Direct is the
// one-step schedule, so for it the barrier only closes the overlapped
// round. NetStats picks up the wire tax (retransmissions, duplicates,
// corrupt frames, relay hops) while StepComm keeps counting the delivered
// payload — the realized h-relation. Either way each store group then
// writes its arrivals, gathered in canonical (src_g-ascending) order and
// stable-sorted by (src, dst), so the bytes on disk are bit-identical
// between the in-process path, every schedule over lossy links, any
// degraded-mode assignment, and both use_threads modes.
void EmEngine::deliver_staged(RunState& rs,
                              std::vector<ProcOutcome>& outcomes) {
  const std::uint32_t p = cfg_.p;
  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const eshard = tr ? &tr->engine_shard() : nullptr;
  const std::uint32_t epid = tr ? tr->engine_pid() : 0;
  cgm::StepComm step;
  if (p > 1) {
    std::vector<std::uint64_t> sent(p, 0), recv(p, 0);
    for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        if (group_host_[src_g] == group_host_[dst_g]) continue;
        for (const auto& m : outcomes[src_g].by_owner[dst_g]) {
          const std::uint64_t n = m.payload.size();
          step.bytes += n;
          step.messages += 1;
          step.min_msg_bytes = std::min(step.min_msg_bytes, n);
          step.max_msg_bytes = std::max(step.max_msg_bytes, n);
          sent[group_host_[src_g]] += n;
          recv[group_host_[dst_g]] += n;
        }
      }
    }
    for (std::uint32_t r = 0; r < p; ++r) {
      step.max_sent = std::max(step.max_sent, sent[r]);
      step.max_recv = std::max(step.max_recv, recv[r]);
    }

    // batches[dst_g][src_g]: the (src_g -> dst_g) message batch wherever
    // it currently is. Same-host batches are staged directly, and so are
    // crossing batches whose flow the first schedule step leaves at its
    // origin; the rest went out in the step-0 round and are decoded from
    // the deliveries below.
    std::vector<std::vector<std::vector<cgm::Message>>> batches(
        p, std::vector<std::vector<cgm::Message>>(p));
    for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        auto& batch = outcomes[src_g].by_owner[dst_g];
        if (batch.empty()) continue;
        const std::uint32_t o = group_host_[src_g], f = group_host_[dst_g];
        if (net_ && o != f && next_hop_[0][o * p + f] != kNoHost) continue;
        batches[dst_g][src_g] = std::move(batch);
      }
    }
    if (net_) {
      obs::SpanScope net_span(tr, eshard, obs::SpanKind::kNetCollect, epid,
                              0, -1, -1, phys_step_, rs.round);
      const net::NetStats net_mark = net_->stats();
      std::vector<std::vector<std::uint32_t>> hosted(p);
      for (std::uint32_t g = 0; g < p; ++g) hosted[group_host_[g]].push_back(g);
      const std::vector<routing::ScheduleStep>& steps = sched_->steps;
      // A schedule over fewer than two live hosts has no steps; its step-0
      // round is open all the same (and empty).
      const std::size_t nsteps = std::max<std::size_t>(steps.size(), 1);
      for (std::size_t si = 0; si < nsteps; ++si) {
        obs::SpanScope step_span(si > 0 ? tr : nullptr, eshard,
                                 obs::SpanKind::kSchedStep, epid,
                                 static_cast<std::uint32_t>(si), -1, -1,
                                 phys_step_, rs.round);
        if (si > 0) {
          net_->begin_round();
          std::uint64_t posted_bytes = 0, posted_transfers = 0;
          for (const routing::Transfer& t : steps[si].transfers) {
            WriteArchive ar;
            for (const routing::Flow& fl : t.flows) {
              for (std::uint32_t src_g : hosted[fl.first]) {
                for (std::uint32_t dst_g : hosted[fl.second]) {
                  auto& batch = batches[dst_g][src_g];
                  if (batch.empty()) continue;
                  put_record(ar, src_g, dst_g, batch);
                  batch.clear();
                }
              }
            }
            if (ar.size() == 0) continue;
            posted_bytes += ar.size();
            posted_transfers += 1;
            net_->post(t.src, t.dst, ar.take());
          }
          for (std::uint32_t h = 0; h < p; ++h) {
            if (alive_[h]) net_->finish_sender(h);
          }
          step_span.set_aux(posted_bytes, posted_transfers);
        }
        std::vector<std::vector<net::Delivery>> inboxes;
        try {
          inboxes = net_->collect();
        } catch (const net::NetError&) {
          // Attribute the exhausted link before giving up: a fail-stopped
          // peer is a fail-over, an overwhelmed retry budget is an error.
          auto dead = net_->probe_dead();
          if (!dead.empty() && cfg_.net.failover) {
            throw DeadProcsError{std::move(dead), std::current_exception()};
          }
          throw;
        }
        for (std::uint32_t h = 0; h < p; ++h) {
          // Reassemble each sender's fragment stream (per-link delivery is
          // FIFO, so concatenation in arrival order restores it exactly),
          // then parse the records back out.
          std::vector<std::vector<std::byte>> stream_from(p);
          for (auto& d : inboxes[h]) {
            auto& s = stream_from[d.src];
            s.insert(s.end(), d.payload.begin(), d.payload.end());
          }
          for (std::uint32_t hs = 0; hs < p; ++hs) {
            if (stream_from[hs].empty()) continue;
            ReadArchive ar(stream_from[hs]);
            while (!ar.exhausted()) {
              const auto src_g = ar.get<std::uint32_t>();
              const auto dst_g = ar.get<std::uint32_t>();
              EMCGM_CHECK_MSG(
                  src_g < p && dst_g < p &&
                      next_hop_[si][group_host_[src_g] * p +
                                    group_host_[dst_g]] == h,
                  "network delivery misrouted");
              auto& batch = batches[dst_g][src_g];
              EMCGM_CHECK_MSG(batch.empty(),
                              "duplicate network batch delivered");
              get_record_body(ar, batch);
            }
          }
        }
      }
      const net::NetStats delta = net_->stats() - net_mark;
      step.wire_bytes = delta.wire_bytes;
      step.retransmissions = delta.retransmissions;
      net_span.set_aux(delta.wire_bytes, delta.retransmissions);
    }

    if (cfg_.chaos.invariants) {
      // Exactly-once delivery: the crossing messages decoded out of the
      // network (plus same-host staging) must equal, in count, the
      // crossing messages the h-relation accounting saw at the source —
      // a dropped-and-not-retransmitted or duplicated-and-not-deduped
      // batch shows up here, at the barrier it corrupted.
      std::uint64_t delivered = 0;
      for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
        for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
          if (group_host_[src_g] == group_host_[dst_g]) continue;
          delivered += batches[dst_g][src_g].size();
        }
      }
      if (delivered != step.messages) {
        std::ostringstream os;
        os << "network delivered " << delivered
           << " crossing messages but the sources posted " << step.messages;
        throw chaos::InvariantViolation(chaos::Invariant::kExactlyOnce,
                                        os.str());
      }
    }

    std::vector<std::uint32_t> crashed;
    std::exception_ptr cause;
    for (std::uint32_t dst_g = 0; dst_g < p; ++dst_g) {
      std::vector<cgm::Message> arrivals;
      for (std::uint32_t src_g = 0; src_g < p; ++src_g) {
        for (auto& m : batches[dst_g][src_g]) {
          arrivals.push_back(std::move(m));
        }
      }
      if (!arrivals.empty()) {
        // Deterministic arrival order regardless of threading or routing;
        // stable so same-(src, dst) messages keep their program order.
        std::stable_sort(arrivals.begin(), arrivals.end(),
                         [](const cgm::Message& a, const cgm::Message& b) {
                           return a.src != b.src ? a.src < b.src
                                                 : a.dst < b.dst;
                         });
        // Arrival writes run at the barrier (main thread) but touch the
        // destination group's disks — render them there.
        obs::SpanScope span(tr, eshard, obs::SpanKind::kOutboxWrite,
                            group_host_[dst_g], dst_g, dst_g, -1,
                            phys_step_, rs.round,
                            tr ? &procs_[dst_g]->disks->stats() : nullptr);
        if (tr) {
          std::uint64_t bytes = 0;
          for (const auto& m : arrivals) bytes += m.payload.size();
          span.set_aux(arrivals.size(), bytes);
        }
        try {
          procs_[dst_g]->messages->write_messages(arrivals);
        } catch (const IoError& e) {
          // Group dst_g's own disks fail-stopped: machine dst_g died.
          if (e.kind() != IoErrorKind::kCrash) throw;
          crashed.push_back(dst_g);
          if (!cause) cause = std::current_exception();
        }
      }
    }
    if (!crashed.empty()) {
      if (cfg_.net.failover) {
        throw DeadProcsError{std::move(crashed), cause};
      }
      std::rethrow_exception(cause);
    }
  }
  rs.result.comm.steps.push_back(step);
  rs.result.comm_steps += 1;
}

// Async barrier companion to deliver_staged: the arrival writes above are
// write-behind, so their completion (and any crash they suffered) is
// collected here, before the stores flip and the superstep's I/O is
// recorded. Serial arrays make this a no-op.
void EmEngine::drain_arrival_writes() {
  std::vector<std::uint32_t> crashed;
  std::exception_ptr cause;
  for (std::uint32_t g = 0; g < cfg_.p; ++g) {
    auto& rp = *procs_[g];
    if (!rp.disks->async()) continue;
    try {
      rp.disks->drain();
    } catch (const IoError& e) {
      if (e.kind() != IoErrorKind::kCrash) throw;
      crashed.push_back(g);
      if (!cause) cause = std::current_exception();
    }
  }
  if (!crashed.empty()) {
    if (cfg_.net.failover) throw DeadProcsError{std::move(crashed), cause};
    std::rethrow_exception(cause);
  }
}

// ---------------------------------------------------------------- step ----

bool EmEngine::step() {
  ApiGuard guard(busy_, "step");
  EMCGM_CHECK_MSG(rs_ != nullptr,
                  "step() requires an active run (start()/start_resume())");
  RunState& rs = *rs_;
  if (rs.all_done) return false;
  const cgm::Program& program = *rs.program;
  const bool balanced = cfg_.balanced_routing;
  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const eshard = tr ? &tr->engine_shard() : nullptr;
  const std::uint32_t epid = tr ? tr->engine_pid() : 0;

  EMCGM_CHECK_MSG(rs.round < kMaxRounds,
                  "program '" << program.name() << "' exceeded "
                              << kMaxRounds << " rounds");
  // No-progress watchdog (cfg_.chaos.invariants): a high-water mark on the
  // (round, phase) key. Every clean superstep ends by advancing round or
  // phase, so the key moves strictly forward; only fail-over / rejoin
  // replays legitimately revisit it, and their replay chains are bounded by
  // the membership schedule. watchdog_steps consecutive steps without a new
  // high-water mark therefore means livelock, not recovery.
  if (cfg_.chaos.invariants) {
    const std::uint32_t ph = static_cast<std::uint32_t>(rs.phase);
    const bool advanced = !rs.wd_seen || rs.round > rs.wd_hw_round ||
                          (rs.round == rs.wd_hw_round && ph > rs.wd_hw_phase);
    if (advanced) {
      rs.wd_seen = true;
      rs.wd_hw_round = rs.round;
      rs.wd_hw_phase = ph;
      rs.wd_stall = 0;
    } else if (++rs.wd_stall >= cfg_.chaos.watchdog_steps) {
      std::ostringstream os;
      os << "no superstep progress past (round " << rs.wd_hw_round
         << ", phase " << rs.wd_hw_phase << ") for " << rs.wd_stall
         << " physical supersteps (watchdog_steps = "
         << cfg_.chaos.watchdog_steps << ")";
      throw chaos::InvariantViolation(chaos::Invariant::kWatchdog, os.str());
    }
  }
  try {
    // Engine-shard backbone: one superstep span per physical step; child
    // barrier spans (heartbeat, net collect, commit) nest inside it.
    obs::SpanScope step_span(tr, eshard, obs::SpanKind::kSuperstep, epid, 0,
                             -1, -1, phys_step_, rs.round);
    step_span.set_aux(static_cast<std::uint64_t>(rs.phase));
    if (net_) {
      // The physical superstep clock drives the fail-stop trigger and the
      // failure detector. It is monotonic: a replayed superstep is a new
      // physical step, so a fault schedule never re-fires "in the past".
      net_->set_step(phys_step_);
      if (cfg_.net.failover) {
        obs::SpanScope hb_span(tr, eshard, obs::SpanKind::kHeartbeat, epid,
                               0, -1, -1, phys_step_, rs.round);
        auto newly_dead = net_->heartbeat_round(phys_step_);
        hb_span.set_aux(newly_dead.size());
        if (!newly_dead.empty()) {
          throw DeadProcsError{std::move(newly_dead), nullptr};
        }
      }
      // Deaths take priority (the heartbeat above threw): a rejoin racing
      // a second death is admitted at the next barrier, after the
      // fail-over settled — deterministically, in every threading mode.
      try_rejoin(rs.round, rs.result);
    }
    if (rs.phase == Phase::kCompute) {
      // Open the schedule's step-0 mailbox round: hosts post crossing
      // records as their groups finish; deliver_staged collects it (and
      // runs any later steps) at the barrier.
      if (net_) net_->begin_round();
      auto outcomes = run_phase(rs, /*compute=*/true);
      rs.result.app_rounds += 1;

      bool any_done = false;
      rs.all_done = true;
      for (const auto& o : outcomes) {
        for (char d : o.done) {
          any_done = any_done || d;
          rs.all_done = rs.all_done && d;
        }
      }
      EMCGM_CHECK_MSG(any_done == rs.all_done,
                      "program '" << program.name()
                                  << "' disagreed on termination at round "
                                  << rs.round);
      for (auto& rp : procs_) rp->contexts->flip();
      if (rs.all_done) {
        // A final round sends nothing (enforced above), so the open
        // mailbox round is empty — close it without a delivery pass.
        if (net_) {
          obs::SpanScope net_span(tr, eshard, obs::SpanKind::kNetCollect,
                                  epid, 0, -1, -1, phys_step_, rs.round);
          net_->collect();
        }
        if (cfg_.checkpointing) commit(rs.round, Phase::kDone);
        verify_drained("the final barrier");
        record_step_io(rs, "final", false, rs.round);
        ++phys_step_;
        return false;
      }

      deliver_staged(rs, outcomes);
      drain_arrival_writes();
      verify_drained("the compute barrier");
      for (auto& rp : procs_) rp->messages->flip();
      const std::uint64_t ran_round = rs.round;
      if (balanced) {
        rs.phase = Phase::kRegroup;
      } else {
        ++rs.round;
      }
      if (cfg_.checkpointing) commit(rs.round, rs.phase);
      record_step_io(rs, "compute", true, ran_round);
    } else {
      if (net_) net_->begin_round();
      auto regroup = run_phase(rs, /*compute=*/false);
      deliver_staged(rs, regroup);
      drain_arrival_writes();
      verify_drained("the regroup barrier");
      for (auto& rp : procs_) rp->messages->flip();
      const std::uint64_t ran_round = rs.round;
      rs.phase = Phase::kCompute;
      ++rs.round;
      if (cfg_.checkpointing) commit(rs.round, rs.phase);
      record_step_io(rs, "regroup", true, ran_round);
    }
    ++phys_step_;
  } catch (const DeadProcsError& e) {
    // One or more machines died mid-superstep. Absorb the loss (or rethrow
    // the underlying fault if fail-over cannot help) and replay from the
    // last committed boundary with the new ownership map.
    failover(e.procs, e.cause, rs.result);
    rs.round = commit_.round;
    rs.phase = commit_.phase;
    rs.all_done = (rs.phase == Phase::kDone);
    ++phys_step_;
  }
  return !rs.all_done;
}

std::vector<cgm::PartitionSet> EmEngine::finish() {
  ApiGuard guard(busy_, "finish");
  EMCGM_CHECK_MSG(rs_ != nullptr,
                  "finish() requires an active run (start()/start_resume())");
  EMCGM_CHECK_MSG(rs_->all_done,
                  "finish() before the program finished (drive step() until"
                  " it returns false)");
  RunState& rs = *rs_;
  const cgm::Program& program = *rs.program;
  const std::uint32_t v = cfg_.v;
  const std::uint32_t nloc = nlocal();
  obs::Tracer* const tr = tracer_.get();
  obs::TraceShard* const eshard = tr ? &tr->engine_shard() : nullptr;
  const std::uint32_t epid = tr ? tr->engine_pid() : 0;

  // ------------------------------------------------------ collect output --
  // A machine can still fail-stop here, while its contexts are being read
  // back; the final boundary is committed (Phase::kDone), so absorbing the
  // loss and re-reading through the survivor is safe.
  std::vector<cgm::PartitionSet> outputs;
  obs::SpanScope out_span(tr, eshard, obs::SpanKind::kOutputCollect, epid, 0,
                          -1, -1, phys_step_, rs.round);
  out_span.set_aux(v);
  for (;;) {
    std::uint32_t reading_group = 0;
    try {
      outputs.clear();
      for (std::uint32_t g = 0; g < v; ++g) {
        reading_group = owner_of(g);
        auto& rp = *procs_[reading_group];
        const auto blob = rp.contexts->read(g % nloc);
        auto state = program.make_state();
        auto unpacked = unpack_context(blob, *state);
        if (unpacked.outputs.size() > outputs.size()) {
          outputs.resize(unpacked.outputs.size());
          for (auto& slot : outputs) slot.parts.resize(v);
        }
        for (std::size_t k = 0; k < unpacked.outputs.size(); ++k) {
          outputs[k].parts[g] = std::move(unpacked.outputs[k]);
        }
      }
      break;
    } catch (const IoError& e) {
      if (e.kind() != IoErrorKind::kCrash || !cfg_.net.failover) throw;
      failover({reading_group}, std::current_exception(), rs.result);
    }
  }
  for (auto& slot : outputs) slot.parts.resize(v);

  record_step_io(rs, "output", false, rs.round);  // output-collection reads

  pdm::IoStats io_after;
  for (auto& rp : procs_) io_after += rp->disks->stats();
  rs.result.io = io_after - rs.io_before;
  if (net_) rs.result.net = net_->stats() - rs.net_before;

  rs.result.wall_s = rs.timer.elapsed_s();
  last_ = rs.result;
  total_ += rs.result;
  rs_.reset();
  return outputs;
}

}  // namespace emcgm::em

