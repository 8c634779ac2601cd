// Core-vs-reference differential oracle over one scenario.
//
// Runs the scenario through every optimized core and its frozen reference
// twin — scheduler (schedule_bioassay vs schedule_bioassay_reference),
// SA placer (place_components vs place_components_reference), BA placer
// (place_components_baseline vs place_components_baseline_reference),
// router (route_transports vs route_transports_reference), and the
// route-retime fixpoint (route_until_consistent vs
// route_until_consistent_reference) —
// asserting bit-identical results at every pair, then cross-checks the
// winning result against the independent invariant layers: the schedule
// and routing validators and the discrete-event chip simulator.
//
// Exceptions are part of the contract: when one side of a pair throws
// (infeasible allocation, unroutable chip) the other side must throw the
// same error type too, otherwise that is a divergence like any other. A
// scenario where both sides of the *first* stage fail identically is
// reported as `degenerate` (nothing downstream to compare) and counts as
// a pass.
//
// Fault injection: the oracle can perturb the core-side result of one
// stage by a known off-by-one before comparing, simulating a core bug at
// the equivalence boundary. This is how the harness proves, in CI, that a
// real divergence would be detected and shrunk (see shrinker.hpp and
// `fuzz_synth --self-test`), without keeping a deliberately broken core
// in the tree.

#pragma once

#include <string>
#include <vector>

#include "testgen/scenario.hpp"

namespace fbmb {

/// Known off-by-one perturbations applied to the core side only.
enum class FaultInjection {
  kNone,
  /// Adds 1s to the start/end of the first operation with two or more
  /// parents (a mix joining two inputs); fires on most generated
  /// scenarios and shrinks to a 3-operation join.
  kScheduleOffByOne,
  /// Adds one postpone step to the delay of the first postponed transport
  /// (or, when none was postponed, to the first transport's delay slot).
  kRouteDelayOffByOne,
};

struct OracleOptions {
  /// Run the discrete-event chip simulator on the final result.
  bool run_simulator = true;
  FaultInjection inject = FaultInjection::kNone;
};

/// What the oracle found. `ok` is the gate: false means at least one
/// divergence or invariant violation, described in `failures`.
struct OracleReport {
  bool ok = true;
  /// Both sides of the scheduling stage failed with the same error; no
  /// downstream pair could run. Counts as a pass (the pair agreed).
  bool degenerate = false;
  std::vector<std::string> failures;

  // Scenario size/effort markers for fuzzing telemetry.
  std::size_t operations = 0;
  std::size_t transports = 0;
  std::uint64_t fixpoint_rounds = 0;
  /// False when the route-retime fixpoint hit its round cap with delays
  /// still pending. The cap's contract is an honest partial result: the
  /// reconciliation round's own delays are reported but not retimed, so
  /// the (schedule, routing) pair may be inconsistent and the simulator
  /// stage is skipped (the differential pairs above still gate).
  bool fixpoint_converged = true;

  void fail(std::string what) {
    ok = false;
    failures.push_back(std::move(what));
  }
};

/// Runs the full differential pipeline described above.
OracleReport run_differential_oracle(const Scenario& scenario,
                                     const OracleOptions& options = {});

}  // namespace fbmb
