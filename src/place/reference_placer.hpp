// Reference placers: the original implementations, kept as oracles.
//
// `place_components` now runs on PlacerCore (place/placer_core.hpp), which
// evaluates proposals incrementally. This header keeps the original SA
// implementation — copy-based proposals, O(nets) full-energy evaluation with
// an O(n^2) pairwise compaction rescan, O(n) legality scans, and the
// placed-id rejection sampler — verbatim as a test/bench oracle.
//
// `place_components_baseline` (BA's construction by correction) now caches
// the other components' footprints while one component scans and answers
// legality from a prefix sum of the cells they cover. The reference below
// is the original scan, which rebuilds every other footprint per candidate
// origin (legality) and every neighbour's per cost.
//
// Each pair is bit-identical by construction: tests/placer_equivalence_test
// .cpp and bench/place_perf assert identical placements (and, for SA,
// energies) per paper benchmark, the differential fuzzer compares both
// pairs on every generated scenario, and bench/place_perf reports each
// core's speedup.
//
// The references keep no PlaceStats (mirroring route_transports_reference,
// which keeps no RouteStats): counters are telemetry, and the oracles stay
// frozen.

#pragma once

#include "biochip/chip_spec.hpp"
#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "place/constructive_placer.hpp"
#include "place/placement.hpp"
#include "place/sa_placer.hpp"
#include "schedule/types.hpp"

namespace fbmb {

/// Original full SA placement flow (lowest-energy restart wins). Same
/// contract as place_components; bit-identical output for equal inputs.
Placement place_components_reference(const Allocation& allocation,
                                     const Schedule& schedule,
                                     const WashModel& wash_model,
                                     const ChipSpec& spec,
                                     const PlacerOptions& options = {});

/// Original per-restart candidate list. Same contract as
/// place_component_candidates; bit-identical output for equal inputs.
std::vector<Placement> place_component_candidates_reference(
    const Allocation& allocation, const Schedule& schedule,
    const WashModel& wash_model, const ChipSpec& spec,
    const PlacerOptions& options = {});

/// Original BA construction-by-correction placer. Same contract as
/// place_components_baseline; bit-identical output for equal inputs.
Placement place_components_baseline_reference(
    const Allocation& allocation, const Schedule& schedule,
    const ChipSpec& spec, const ConstructivePlacerOptions& options = {});

}  // namespace fbmb
