// The route–retime fixpoint (FlowCore).
//
// Routing resolves transport conflicts by postponing tasks; postponements
// must be folded back into the schedule (retiming), which changes the
// windows later transports route against, so routing and retiming iterate
// until a conflict-free consistent (schedule, routing) pair emerges.
// Delays only ever push events later, so the loop converges;
// RouterOptions::max_fixpoint_rounds guards pathological cases, and the
// cap path stays consistent: it applies the final retiming and runs one
// reconciliation route against the retimed schedule (reported via
// RouteStats::fixpoints_capped) instead of returning paths that predate
// the retiming.
//
// route_until_consistent is the incremental core: it keeps one
// IncrementalRouter across rounds, so after the first round only the
// dirty set (retimed transports plus the closure of replay conflicts) is
// re-routed — see route/incremental_router.hpp for the dirty-set rule.
// route_until_consistent_reference is the original from-scratch loop
// (fresh grid + full route per round), kept verbatim as the equivalence
// oracle: tests/flow_equivalence_test.cpp proves the two produce
// bit-identical (Schedule, RoutingResult) pairs on every paper benchmark
// under both presets, and bench/flow_perf measures the speedup.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "graph/sequencing_graph.hpp"
#include "place/placement.hpp"
#include "route/incremental_router.hpp"
#include "route/router.hpp"
#include "schedule/types.hpp"
#include "util/stats_fields.hpp"

namespace fbmb {

/// Wall time spent in each stage of one synthesis flow, in seconds. Filled
/// by synthesize_custom (and therefore by both presets); the runtime
/// telemetry layer aggregates these across batched jobs. grid_build,
/// route and retime are summed over the SA candidates' fixpoints, so
/// when those run in parallel they are thread time, not wall time.
#define MSYNTH_STAGE_TIMES(X)                                           \
  X(schedule)   /* binding & list scheduling */                         \
  X(refine)     /* channel-storage refinement pass */                   \
  X(place)      /* placement (SA restarts + polish, or BA) */           \
  X(grid_build) /* RoutingGrid (re)builds and resets */                 \
  X(route)      /* A* routing rounds (dominant stage) */                \
  X(retime)     /* folding router postponements into the schedule */

struct StageTimes {
  MSYNTH_STATS_FIELDS(StageTimes, double, MSYNTH_STAGE_TIMES)

  double total() const {
    double sum = 0.0;
    for_each_field([&](const char*, auto member) { sum += this->*member; });
    return sum;
  }
};

/// Reuse counters for the route–retime fixpoint; summed over every
/// fixpoint a flow runs (one per SA placement candidate). Telemetry-only,
/// like RouteStats.
#define MSYNTH_FLOW_STATS(X)                                              \
  X(rounds)              /* routing rounds executed */                    \
  X(transports_rerouted) /* tasks that ran the A* pipeline */             \
  X(transports_reused)   /* tasks replayed without search */              \
  X(cells_evicted)       /* cell reservations dropped by dirt */

struct FlowStats {
  MSYNTH_STATS_FIELDS(FlowStats, std::uint64_t, MSYNTH_FLOW_STATS)
  /// Per-round breakdown, in execution order (concatenated across
  /// fixpoints). Not in the field list, so not threaded through
  /// telemetry or the result cache; the flow_perf bench reports per-round
  /// re-route fractions from it.
  std::vector<FlowRound> round_details;

  FlowStats& operator+=(const FlowStats& o) {
    accumulate_fields(*this, o);
    round_details.insert(round_details.end(), o.round_details.begin(),
                         o.round_details.end());
    return *this;
  }
};

/// Routes `schedule` until the (schedule, routing) pair is consistent,
/// retiming between rounds, re-routing only the dirty set after the first
/// round. Mutates `schedule` (retiming) and adds the grid_build/route/
/// retime spans to `stages`. `checkpoint`, when set, is invoked with
/// "route" before every transport inside every routing round
/// (cancellation hook; latency is bounded by one search, not one round).
/// `flow`, when set, receives the reuse accounting. The fixpoint itself
/// is serial: router_options.route_threads / route_executor are read by
/// synthesize_custom, which runs whole candidate fixpoints in parallel.
RoutingResult route_until_consistent(
    Schedule& schedule, const SequencingGraph& graph,
    const Allocation& allocation, const ChipSpec& chip,
    const Placement& placement, const WashModel& wash_model,
    const RouterOptions& router_options, StageTimes& stages,
    const std::function<void(const char*)>& checkpoint,
    FlowStats* flow = nullptr);

/// The from-scratch loop: rebuilds the grid and re-routes every transport
/// each round. Identical observable behavior (bit-identical schedule and
/// routing, apart from telemetry-only stats); kept as the equivalence
/// oracle and baseline for bench/flow_perf.
RoutingResult route_until_consistent_reference(
    Schedule& schedule, const SequencingGraph& graph,
    const Allocation& allocation, const ChipSpec& chip,
    const Placement& placement, const WashModel& wash_model,
    const RouterOptions& router_options, StageTimes& stages,
    const std::function<void(const char*)>& checkpoint,
    FlowStats* flow = nullptr);

}  // namespace fbmb
