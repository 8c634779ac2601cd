// Routing results.

#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "util/geometry.hpp"
#include "util/stats_fields.hpp"

namespace fbmb {

/// Search-effort counters for one routing pass (or, after
/// route_until_consistent, the sum over its rounds). Telemetry-only: two
/// RoutingResults are considered equivalent regardless of their stats.
/// fixpoints_capped counts route–retime fixpoints that hit
/// RouterOptions::max_fixpoint_rounds with delays still pending (the
/// result is still consistent: the cap path applies the final retiming
/// and routes once more to reconcile).
#define MSYNTH_ROUTE_STATS(X)                                   \
  X(tasks_routed)           /* transports routed */              \
  X(nodes_expanded)         /* non-stale A* pops */              \
  X(heap_pushes)            /* A* open-list insertions */        \
  X(feasibility_rejections) /* cells priced +inf (Eq. 5) */      \
  X(postponement_steps)     /* postpone_step increments */       \
  X(distance_fields_built)  /* heuristic BFS fields built */     \
  X(fixpoints_capped)       /* fixpoints stopped by the cap */

struct RouteStats {
  MSYNTH_STATS_FIELDS(RouteStats, std::uint64_t, MSYNTH_ROUTE_STATS)

  RouteStats& operator+=(const RouteStats& o) {
    return accumulate_fields(*this, o);
  }
};

/// One routed transportation task.
struct RoutedPath {
  int transport_id = -1;        ///< index into Schedule::transports
  int from_component = -1;      ///< source ComponentId
  int to_component = -1;        ///< destination ComponentId
  std::vector<Point> cells;     ///< source port .. destination port
  double start = 0.0;           ///< fluid departs (post any postponement)
  double transport_end = 0.0;   ///< start + t_c
  double cache_until = 0.0;     ///< fluid consumed (>= transport_end)
  double wash_duration = 0.0;   ///< flush before start (0 if path clean)
  double delay = 0.0;           ///< postponement the router added

  int length_cells() const {
    return cells.empty() ? 0 : static_cast<int>(cells.size()) - 1;
  }
};

/// Aggregate routing outcome for a schedule.
struct RoutingResult {
  std::vector<RoutedPath> paths;     ///< one per transport, in routed order
  std::vector<double> delays;        ///< per transport index (for retiming)
  double total_wash_time = 0.0;      ///< sum of wash flushes (Fig. 9)
  int conflict_postponements = 0;    ///< tasks the router had to delay
  RouteStats stats;                  ///< search-effort counters (telemetry)

  /// Distinct undirected channel segments (adjacent-cell pairs) fabricated
  /// across all paths, plus the distinct component-to-channel connection
  /// stubs (one per used (component, port-cell) pair): shared segments are
  /// counted once — channels are physical and reusable.
  int distinct_channel_edges() const;

  /// Physical channel length: distinct segments * cell pitch.
  double total_channel_length_mm(double cell_pitch_mm) const {
    return distinct_channel_edges() * cell_pitch_mm;
  }

  /// Sum of per-path lengths (with sharing double-counted); used to compare
  /// routed detour against the distinct-channel metric.
  int total_routed_cells() const;
};

/// True when the two results are bit-identical apart from their
/// telemetry-only RouteStats: same paths (cells and all timing doubles,
/// in the same order), same per-transport delays, same wash total and
/// postponement count. This is the equivalence relation the core-vs-
/// reference tests and benches assert.
bool identical_routing(const RoutingResult& a, const RoutingResult& b);

}  // namespace fbmb
