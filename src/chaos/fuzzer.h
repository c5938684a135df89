// Seeded chaos fuzzer: run N generated plans against a clean reference and
// demand that every run is either bit-identical or a *typed*, recoverable
// failure.
//
// The contract under test is the determinism backbone the repo is built on:
// whatever faults fire, a run that completes — directly, in degraded mode
// after fail-over, or via resume() after an abort — must produce the exact
// bytes of the fault-free run; a run that cannot complete must fail with a
// typed error (IoError / emcgm::Error), never a wrong answer, a hang, or an
// untyped exception. The runtime invariant layer (cfg.chaos.invariants) is
// armed on every fuzz run, so an engine that "succeeds" by breaking its own
// guarantees is caught as an InvariantViolation, which the fuzzer counts as
// a finding.
//
// A failing plan is a self-contained repro: its JSON (ChaosPlan::to_json)
// replays the exact schedule, and shrink.h minimizes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgm/engine.h"
#include "chaos/plan.h"
#include "pdm/backend.h"

namespace emcgm::chaos {

/// Machine shape one fuzz campaign runs on. The workload is the sample sort
/// (the paper's Fig. 5 row A1 algorithm) over a duplicate-heavy keyed input
/// — multi-round, message-dense, and bit-identity-checked end to end.
struct FuzzMachine {
  std::uint32_t v = 8;          ///< virtual processors
  std::uint32_t p = 2;          ///< real processors
  std::uint32_t num_disks = 4;  ///< D per real processor
  std::size_t block_bytes = 128;
  std::uint32_t io_threads = 0;  ///< async executor workers (0 = serial)
  bool use_threads = false;      ///< one driver thread per host
  std::size_t keys = 400;        ///< input size of the sort workload
  pdm::BackendKind backend = pdm::BackendKind::kMemory;
  std::string file_dir;  ///< scratch root for BackendKind::kFile
};

/// What one plan did, most benign first.
enum class FuzzStatus {
  kIdentical,        ///< ran to completion, output bit-identical
  kResumedIdentical, ///< aborted typed, resume() completed bit-identical
  kTypedFailure,     ///< aborted with a typed error; no wrong answer escaped
  kDivergence,       ///< completed with output != reference  (FINDING)
  kInvariant,        ///< runtime invariant violation          (FINDING)
  kUntypedFailure,   ///< non-typed exception escaped          (FINDING)
};

const char* to_string(FuzzStatus s);

/// True for the outcomes the robustness contract allows.
inline bool fuzz_ok(FuzzStatus s) {
  return s == FuzzStatus::kIdentical || s == FuzzStatus::kResumedIdentical ||
         s == FuzzStatus::kTypedFailure;
}

struct FuzzOutcome {
  FuzzStatus status = FuzzStatus::kIdentical;
  std::string detail;  ///< error text of the abort / finding, if any
  ChaosPlan plan;      ///< the schedule that produced it (repro artifact)
};

struct FuzzReport {
  std::uint64_t runs = 0;
  std::uint64_t by_status[6] = {};  ///< indexed by FuzzStatus
  std::vector<FuzzOutcome> findings;  ///< every !fuzz_ok outcome, in order

  bool ok() const { return findings.empty(); }
  std::string summary() const;
};

/// Execute one plan on one machine shape and classify the outcome against
/// `reference` (the clean run's outputs, from run_reference()). Arms the
/// invariant layer; on a typed abort, lifts quotas, disarms the injectors
/// and attempts one resume(). A run that reached the reference is followed
/// by a re-run of the same program on the same engine, disk injectors
/// disarmed: it must end exactly as a fresh engine in the same state does
/// and must not grow the disks' footprint (summed tracks_used), else the
/// plan is a finding.
FuzzOutcome run_plan(const ChaosPlan& plan, const FuzzMachine& machine,
                     const std::vector<cgm::PartitionSet>& reference);

/// The clean (fault-free) run of the fuzz workload on `machine`.
std::vector<cgm::PartitionSet> run_reference(const FuzzMachine& machine);

/// Run `n_plans` plans generated from `seed` (plan i uses a seed derived
/// from (seed, i)) on one machine shape. `shape` bounds what the plans draw.
FuzzReport fuzz(std::uint64_t seed, std::uint32_t n_plans,
                const FuzzMachine& machine, const PlanShape& shape);

}  // namespace emcgm::chaos
