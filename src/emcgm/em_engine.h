// The paper's deterministic simulation (Algorithms 2 and 3): a v-processor
// CGM algorithm executes on p real processors, each owning D disks; virtual
// processor contexts and all inter-processor messages are carried by
// blocked, fully parallel disk I/O.
//
// Per compound superstep and per local virtual processor (Algorithm 2):
//   (a) read its context from disk (consecutive format),
//   (b) read its incoming messages (message store),
//   (c) run one round of the program,
//   (d) write its generated messages (staggered matrix or chained layout),
//   (e) write the changed context back.
// With p > 1 (Algorithm 3), messages whose destination lives on another
// real processor travel over a simulated network (byte-counted into
// CommStats) and are written to the destination's disks at superstep end.
// With balanced routing (Lemma 2) every application round expands into two
// physical supersteps; the intermediate regrouping runs engine-side and
// touches only the message store — contexts are not re-read.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cgm/engine.h"
#include "emcgm/context_store.h"
#include "emcgm/message_store.h"
#include "net/sim_network.h"
#include "pdm/cost_model.h"
#include "pdm/disk_array.h"
#include "routing/schedule.h"

namespace emcgm::em {

class EmEngine final : public cgm::Engine {
 public:
  explicit EmEngine(cgm::MachineConfig cfg);
  ~EmEngine() override;

  const cgm::MachineConfig& config() const override { return cfg_; }

  std::vector<cgm::PartitionSet> run(
      const cgm::Program& program,
      std::vector<cgm::PartitionSet> inputs) override;

  // ---- cooperative (schedulable) run API --------------------------------
  //
  // run() is start(); while (step()) {}; finish(). A scheduler (the
  // multi-tenant job service, src/svc/) drives the same three calls itself:
  // step() executes exactly one physical superstep and returns at the
  // barrier, so between any two step() calls the engine is quiescent — the
  // stores are flipped, the async executors drained, and (with
  // cfg.checkpointing) the boundary committed. Preempting a job is therefore
  // simply *not calling* step() for a while; no engine state needs saving
  // beyond what the double-slot checkpoint already holds. The sequence of
  // supersteps a program executes is independent of when step() is called,
  // which is what makes a time-multiplexed run bit-identical to a solo run.
  //
  // Thread-safety (re-entrancy audit, DESIGN.md §17): an EmEngine owns every
  // piece of state it touches — disks, stores, network, tracer, metrics,
  // fault streams — and the tree holds no mutable globals, thread-locals or
  // shared caches, so *distinct* engine instances may be driven from
  // distinct threads concurrently (the job service's parallel execution
  // phase does exactly that). ONE engine is single-driver: its cooperative
  // calls must be externally serialized (any thread may make them, one at a
  // time, with a happens-before edge between calls — a worker-pool barrier
  // qualifies). A debug guard (busy_) turns a violated contract into a typed
  // EMCGM_CHECK failure instead of a data race.

  /// Set up a cooperative run: fresh membership, stores, initial contexts
  /// and (with cfg.checkpointing) the initial commit. The program must stay
  /// alive until finish(). Discards any previous unfinished run.
  void start(const cgm::Program& program,
             std::vector<cgm::PartitionSet> inputs);

  /// Cooperative counterpart of resume(): restore from the last committed
  /// boundary and position the run there instead of at round 0.
  void start_resume(const cgm::Program& program);

  /// Execute one physical superstep (or one fail-over/rejoin recovery
  /// action) and return at the barrier. False once the program finished —
  /// call finish() to collect the outputs. Throws exactly what run() would
  /// (typed IoError, InvariantViolation, ...); the cooperative state stays
  /// valid so start_resume() can pick the run back up after repair.
  bool step();

  /// True between start()/start_resume() and finish(): the engine holds a
  /// cooperative run (possibly finished but not yet collected).
  bool active() const { return rs_ != nullptr; }

  /// Collect the outputs of a finished cooperative run and fold the run's
  /// totals into last_result()/total(). Requires active() and step() having
  /// returned false.
  std::vector<cgm::PartitionSet> finish();

  // ---- arbitration hooks (job service) ----------------------------------

  /// Observe every parallel disk op this engine submits, as a block count,
  /// from whichever thread submits it (the hook must be thread-safe). The
  /// job service charges deficit-round-robin accounts with these. Applies
  /// to all current and future runs; pass nullptr to detach.
  void set_io_charge_hook(pdm::IoChargeFn fn);

  /// Observe every closed network round's wire bytes, tagged with
  /// set_net_job_tag()'s value (barrier thread only). Survives the per-run
  /// re-creation of the simulated network.
  void set_net_charge_hook(net::NetChargeFn fn);

  /// Tag this engine's network rounds for the charge hook (job id).
  void set_net_job_tag(std::uint64_t tag);

  /// Recover a run that threw mid-superstep (requires cfg.checkpointing):
  /// re-reads the commit records of the last committed superstep boundary,
  /// restores the context/message directories, and replays the run from
  /// there to completion. Must be called with the same program that was
  /// passed to run(); the returned outputs are bit-identical to what an
  /// uninterrupted run would have produced. last_result() covers the
  /// resumed portion only (the replayed supersteps count again).
  std::vector<cgm::PartitionSet> resume(const cgm::Program& program);

  /// True once run() has committed at least one superstep boundary that
  /// resume() could restart from.
  bool has_checkpoint() const { return commit_.valid; }

  /// Superstep index of the last committed boundary (has_checkpoint() only).
  std::uint64_t checkpoint_round() const;

  const cgm::RunResult& last_result() const override { return last_; }
  const cgm::RunResult& total() const override { return total_; }
  void reset_totals() override { total_ = cgm::RunResult{}; }

  /// I/O statistics of one real processor's disk subsystem, accumulated
  /// since engine construction.
  const pdm::IoStats& io_stats(std::uint32_t real_proc) const;

  /// Space use of one real processor's disks: the sum over its disks of
  /// each disk's high-water track count (highest written track + 1) — the
  /// unit the capacity quota counts, not resident bytes. Track space is
  /// scoped to one run (reset at start()), so on a reused engine this stays
  /// at the largest single run's footprint.
  std::uint64_t tracks_used(std::uint32_t real_proc) const;

  /// Direct access to one real processor's disk subsystem (fault-injection
  /// tests and robustness benchmarks).
  pdm::DiskArray& disk_array(std::uint32_t real_proc);

  /// Change one real processor's per-disk capacity quota (0 = unlimited) —
  /// the "free some space" step after a run aborted with IoError(kNoSpace).
  /// With checkpointing on, resume() then replays from the last committed
  /// boundary to bit-identical output. Quotas count physical bytes.
  void set_disk_quota_bytes(std::uint32_t real_proc, std::uint64_t bytes);

  /// Disarm every real processor's fault injector (no-op without one): the
  /// crashed machine is "rebooted" so resume() can make progress.
  void disarm_faults();

  /// The real processor currently executing store-group `g` (the virtual
  /// processors and disks originally owned by real processor g). Identity
  /// until a fail-over re-assigns a dead processor's groups to survivors.
  std::uint32_t group_host(std::uint32_t g) const;

  /// False once a fail-over declared this real processor dead. Its disks
  /// survive (remounted by the adopting survivor); the machine is gone.
  /// Flips back to true when the rejoin protocol re-admits the processor.
  bool alive(std::uint32_t real_proc) const;

  /// Membership epoch of the current run: 0 at run start, +1 per membership
  /// change (death fail-over or rejoin admission). The epoch selects the
  /// per-link fault-coin stream family, which is what keeps a
  /// kill -> rejoin -> kill history bit-identical across threading modes.
  std::uint64_t membership_epoch() const { return epoch_; }

  /// The simulated network of the current run, or nullptr (net disabled or
  /// p == 1). Exposes wire statistics beyond last_result().net.
  const net::SimNetwork* network() const { return net_.get(); }

  /// The verified collective schedule the current run routes its superstep
  /// communication through, or nullptr (direct schedule, net disabled, or
  /// p == 1). Re-derived and re-verified on every membership epoch.
  const routing::CommSchedule* schedule() const {
    return sched_ ? &*sched_ : nullptr;
  }

  const obs::Tracer* tracer() const override { return tracer_.get(); }
  const obs::MetricsRegistry* metrics() const override {
    return metrics_.get();
  }

 private:
  struct RealProc;
  struct ProcOutcome;
  struct RunState;
  class ApiGuard;

  /// Where a committed boundary resumes: the next physical superstep to run.
  enum class Phase : std::uint32_t { kCompute = 0, kRegroup = 1, kDone = 2 };

  struct Commit {
    bool valid = false;
    std::uint64_t seq = 0;  ///< commit count; record slot = seq % 2
    std::uint64_t round = 0;
    Phase phase = Phase::kCompute;
  };

  std::uint32_t nlocal() const { return cfg_.v / cfg_.p; }
  std::uint32_t owner_of(std::uint32_t vproc) const {
    return vproc / nlocal();
  }

  /// True when superstep communication routes through a verified collective
  /// schedule's multi-hop rounds (engaged schedule) rather than the direct
  /// overlapped all-to-all. Dynamic: a custom schedule falls back to direct
  /// when a membership change invalidates it (rebuild_schedule).
  bool sched_path() const { return net_ != nullptr && sched_.has_value(); }

  /// Install the cooperative run state at a given boundary (the tail of
  /// start()/start_resume()).
  void begin_loop(const cgm::Program& program, std::uint64_t start_round,
                  Phase start_phase, const pdm::IoStats& io_before);

  // One-superstep helpers, split out of the old monolithic run loop; all
  // operate on the installed RunState.
  void record_step_io(RunState& rs, const char* phase_label, bool has_comm,
                      std::uint64_t step_round);
  void simulate_real_proc(RunState& rs, std::uint32_t r, ProcOutcome& out);
  void regroup_real_proc(RunState& rs, std::uint32_t r, ProcOutcome& out);
  void post_group(RunState& rs, std::uint32_t host, std::uint32_t g,
                  ProcOutcome& out);
  std::vector<ProcOutcome> run_phase(RunState& rs, bool compute);
  void deliver_staged(RunState& rs, std::vector<ProcOutcome>& outcomes);
  void drain_arrival_writes();
  void commit(std::uint64_t round, Phase phase);
  void restore_from_commit();

  /// Absorb the death of `dead_procs` (fail-over): disarm their disk fault
  /// injectors (the survivor remounts the disks), re-spread every store
  /// group over the survivors with the deterministic greedy rule, and
  /// restore every store from the last committed boundary. Rethrows `cause`
  /// when fail-over is disabled, nothing was committed yet, or no survivor
  /// remains.
  void failover(const std::vector<std::uint32_t>& dead_procs,
                std::exception_ptr cause, cgm::RunResult& result);

  /// Advance the membership epoch: fresh fault-coin streams on every link
  /// and one membership_epoch counter sample in the trace.
  void bump_epoch();

  /// Re-derive and re-verify the collective schedule over the current live
  /// host set (no-op under kDirect / no network). Called at run start and on
  /// every membership epoch; a schedule the verifier rejects aborts with
  /// typed IoError(kConfig) before any byte moves.
  void rebuild_schedule();

  /// Deterministic greedy spread of the store groups over the live hosts:
  /// groups whose home host is alive go home (their disks are there, the
  /// move is free); orphans go to the least-loaded live host, group id
  /// ascending, ties to the lowest host id. Max-min load difference <= 1.
  std::vector<std::uint32_t> rebalance_groups() const;

  /// Invariant layer (cfg.chaos.invariants): assert the current group_host_
  /// map spreads the groups over the live hosts with max-min load <= 1.
  /// Throws chaos::InvariantViolation(kSpread). No-op when invariants are
  /// off.
  void verify_spread() const;

  /// Invariant layer: assert every real processor's async executor is idle
  /// (no write-behind in flight) — called at superstep barriers, where a
  /// leaked deferred write would cross a commit. Throws
  /// chaos::InvariantViolation(kExecutorDrain). No-op when invariants off.
  void verify_drained(const char* where) const;

  /// Read group g's record of the current committed boundary back off its
  /// own disks (the striped double-slot checkpoint area).
  std::vector<std::byte> read_commit_blob(std::uint32_t g);

  /// CRC + header validation of a commit record that crossed the wire
  /// during a hand-over (checkpoint catch-up on the receiving host).
  void validate_commit_record(std::uint32_t g,
                              std::span<const std::byte> blob) const;

  /// Hand over every group whose executing host differs from `old_host`:
  /// live old hosts stream the group's committed record to the new host
  /// over a staged mailbox round (validated on arrival, counted in
  /// NetStats); dead old hosts hand over via the group's surviving disks.
  /// Returns the record bytes that crossed the wire.
  std::uint64_t migrate_groups(const std::vector<std::uint32_t>& old_host,
                               std::uint64_t round);

  /// Barrier-side rejoin admission (cfg.net.rejoin): run the handshake
  /// round, re-admit every acknowledged returner, re-spread the groups and
  /// run the hand-over round. Returns the number of processors re-admitted.
  std::uint64_t try_rejoin(std::uint64_t round, cgm::RunResult& result);

  cgm::MachineConfig cfg_;

  // Observability (cfg_.obs.trace; both null when off — every
  // instrumentation site below is then a single pointer test). Declared
  // before procs_: each RealProc's disk array may hold a queue-depth probe
  // into the tracer, so the tracer must outlive the arrays.
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;

  std::vector<std::unique_ptr<RealProc>> procs_;
  Commit commit_;
  std::string running_program_;  ///< name sanity check for resume()

  // Fail-over state. Store-group g = the contexts/messages/disks originally
  // owned by real processor g; group_host_[g] is the live processor driving
  // them. Disk layout never moves — only the executing host changes, which
  // is why degraded-mode outputs are bit-identical.
  std::unique_ptr<net::SimNetwork> net_;
  /// Verified collective schedule of the current membership epoch; engaged
  /// iff net_ is live and cfg_.net.schedule != kDirect (rebuild_schedule).
  std::optional<routing::CommSchedule> sched_;
  std::vector<std::uint32_t> group_host_;
  std::vector<char> alive_;
  std::uint64_t phys_step_ = 0;  ///< monotonic physical superstep clock
  std::uint64_t epoch_ = 0;      ///< membership epoch (see membership_epoch)

  /// Cooperative run state between start() and finish(); null otherwise.
  std::unique_ptr<RunState> rs_;

  /// Set while a cooperative-API call (start/start_resume/step/finish) is
  /// on some thread's stack; concurrent entry is a contract violation and
  /// fails an EMCGM_CHECK instead of racing (see the thread-safety note).
  std::atomic<bool> busy_{false};

  // Arbitration hooks (job service); empty = detached, zero overhead.
  pdm::IoChargeFn io_charge_;
  net::NetChargeFn net_charge_;
  std::uint64_t net_job_tag_ = 0;

  cgm::RunResult last_;
  cgm::RunResult total_;
};

}  // namespace emcgm::em
