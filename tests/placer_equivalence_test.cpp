// Placer cores vs their original reference implementations.
//
// SA: the rewrite of place_components onto PlacerCore (in-place moves,
// delta energies, occupancy-grid legality) must be a pure optimization:
// for every paper benchmark, at fixed seeds, every restart candidate must
// be bit-identical to place_component_candidates_reference — same
// origins, same rotations, and the same Eq. 3 energy double for double.
// Stats are telemetry and excluded by design (the reference keeps none).
//
// BA: place_components_baseline (cached footprints, prefix-summed
// legality) must place every component exactly where
// place_components_baseline_reference does, on the paper benchmarks under
// the baseline schedule, on generated assays of 20-100 operations, and
// under every ConstructivePlacerOptions / ChipSpec variant that changes
// the scan.

#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "place/constructive_placer.hpp"
#include "place/reference_placer.hpp"
#include "place/sa_placer.hpp"
#include "schedule/list_scheduler.hpp"

namespace fbmb {
namespace {

void run_benchmark(const Benchmark& bench) {
  const Allocation alloc(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  const Schedule schedule =
      schedule_bioassay(bench.graph, alloc, bench.wash, sched);
  const ChipSpec chip = derive_grid(ChipSpec{}, allocation_area(alloc, 1));

  PlacerOptions placer;
  placer.restarts = 2;  // cover the multi-restart min-element path too
  const std::vector<Net> nets =
      build_nets(schedule, bench.wash, placer.beta, placer.gamma);

  PlaceStats stats;
  const std::vector<Placement> core = place_component_candidates(
      alloc, schedule, bench.wash, chip, placer, &stats);
  const std::vector<Placement> ref = place_component_candidates_reference(
      alloc, schedule, bench.wash, chip, placer);

  ASSERT_EQ(core.size(), ref.size());
  for (std::size_t r = 0; r < core.size(); ++r) {
    SCOPED_TRACE(bench.name + "/restart " + std::to_string(r));
    ASSERT_EQ(core[r].size(), ref[r].size());
    for (const auto& comp : alloc.components()) {
      SCOPED_TRACE("component " + comp.name);
      EXPECT_EQ(core[r].at(comp.id).origin, ref[r].at(comp.id).origin);
      EXPECT_EQ(core[r].at(comp.id).rotated, ref[r].at(comp.id).rotated);
    }
    // Bitwise: the core's incremental energy bookkeeping must reproduce
    // the full recompute exactly, or accept decisions would diverge.
    EXPECT_EQ(
        placement_energy(core[r], alloc, nets, placer.compaction_weight),
        placement_energy(ref[r], alloc, nets, placer.compaction_weight));
    EXPECT_TRUE(core[r].is_legal(alloc, chip));
  }

  // The winning placement goes through the same min-element selection.
  const Placement best =
      place_components(alloc, schedule, bench.wash, chip, placer);
  const Placement best_ref =
      place_components_reference(alloc, schedule, bench.wash, chip, placer);
  for (const auto& comp : alloc.components()) {
    EXPECT_EQ(best.at(comp.id).origin, best_ref.at(comp.id).origin);
    EXPECT_EQ(best.at(comp.id).rotated, best_ref.at(comp.id).rotated);
  }

  // Counters: the SA schedule proposes 150 moves per temperature level per
  // restart, every restart binds twice (initial + pre-polish rebind), and
  // legality runs through the occupancy grid.
  EXPECT_GT(stats.proposals, 0u);
  EXPECT_GT(stats.accepts, 0u);
  EXPECT_GT(stats.delta_evals, 0u);
  EXPECT_EQ(stats.full_evals,
            2u * static_cast<std::uint64_t>(placer.restarts));
  EXPECT_GT(stats.occupancy_probes, 0u);
  EXPECT_GE(stats.delta_evals, stats.accepts);  // every commit was evaluated
}

TEST(PlacerEquivalence, Pcr) { run_benchmark(make_pcr()); }
TEST(PlacerEquivalence, Ivd) { run_benchmark(make_ivd()); }
TEST(PlacerEquivalence, Cpa) { run_benchmark(make_cpa()); }
TEST(PlacerEquivalence, Synthetic1) { run_benchmark(make_synthetic(1)); }
TEST(PlacerEquivalence, Synthetic2) { run_benchmark(make_synthetic(2)); }
TEST(PlacerEquivalence, Synthetic3) { run_benchmark(make_synthetic(3)); }
TEST(PlacerEquivalence, Synthetic4) { run_benchmark(make_synthetic(4)); }

// ---- BA construction-by-correction placer. ----

Schedule baseline_schedule(const SequencingGraph& graph,
                           const Allocation& alloc, const WashModel& wash) {
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kBaseline;
  sched.refine_storage = false;
  return schedule_bioassay(graph, alloc, wash, sched);
}

ChipSpec derived_chip(const Allocation& alloc, int spacing) {
  ChipSpec chip;
  chip.component_spacing = spacing;
  return derive_grid(chip, allocation_area(alloc, spacing));
}

void expect_same_baseline(const std::string& label, const Allocation& alloc,
                          const Schedule& schedule, const ChipSpec& chip,
                          const ConstructivePlacerOptions& options = {}) {
  SCOPED_TRACE(label);
  const Placement core =
      place_components_baseline(alloc, schedule, chip, options);
  const Placement ref =
      place_components_baseline_reference(alloc, schedule, chip, options);
  ASSERT_EQ(core.size(), ref.size());
  for (const auto& comp : alloc.components()) {
    SCOPED_TRACE("component " + comp.name);
    EXPECT_EQ(core.at(comp.id).origin, ref.at(comp.id).origin);
    EXPECT_EQ(core.at(comp.id).rotated, ref.at(comp.id).rotated);
  }
  EXPECT_TRUE(core.is_legal(alloc, chip));
}

TEST(BaselinePlacerEquivalence, PaperBenchmarks) {
  for (const auto& bench : paper_benchmarks()) {
    const Allocation alloc(bench.allocation);
    expect_same_baseline(bench.name, alloc,
                         baseline_schedule(bench.graph, alloc, bench.wash),
                         derived_chip(alloc, 1));
  }
}

// Generated assays of 20..100 operations on a Synthetic4 allocation
// (7,4,4,3) scaled with the operation count, so the scan covers 6-36
// components on grids of up to ~70 cells a side.
TEST(BaselinePlacerEquivalence, GeneratedAssays) {
  for (int i = 0; i < 21; ++i) {
    SyntheticSpec spec;
    spec.operations = 20 + 4 * i;
    spec.seed = 0x5EED00 + static_cast<std::uint64_t>(i);
    const double scale = spec.operations / 50.0;
    auto scaled = [scale](int n) {
      return std::max(1, static_cast<int>(n * scale + 0.5));
    };
    spec.allocation = {scaled(7), scaled(4), scaled(4), scaled(3)};
    const SequencingGraph graph = generate_synthetic_graph(spec);
    const Allocation alloc(spec.allocation);
    expect_same_baseline("ops " + std::to_string(spec.operations), alloc,
                         baseline_schedule(graph, alloc, WashModel{}),
                         derived_chip(alloc, 1));
  }
}

TEST(BaselinePlacerEquivalence, OptionVariants) {
  const Benchmark bench = make_synthetic(4);
  const Allocation alloc(bench.allocation);
  const Schedule schedule = baseline_schedule(bench.graph, alloc, bench.wash);
  const ChipSpec chip = derived_chip(alloc, 1);

  ConstructivePlacerOptions strided;
  strided.scan_stride = 2;
  expect_same_baseline("scan_stride 2", alloc, schedule, chip, strided);
  for (const int passes : {0, 1}) {
    ConstructivePlacerOptions options;
    options.correction_passes = passes;
    expect_same_baseline("correction_passes " + std::to_string(passes), alloc,
                         schedule, chip, options);
  }
  for (const int spacing : {0, 2}) {
    expect_same_baseline("component_spacing " + std::to_string(spacing),
                         alloc, schedule, derived_chip(alloc, spacing));
  }

  ChipSpec wide = chip;  // fixed, non-square: 1.5x wider, 3/4 as tall
  wide.grid_width = chip.grid_width * 3 / 2;
  wide.grid_height = chip.grid_height * 3 / 4;
  expect_same_baseline("fixed " + std::to_string(wide.grid_width) + "x" +
                           std::to_string(wide.grid_height),
                       alloc, schedule, wide);

  // No transports: every component takes the total-spread cost branch.
  expect_same_baseline("no transports", alloc, Schedule{}, chip);
}

// Placement indexes by component id, not by allocation order: an
// allocation listing its components in reverse must still match.
TEST(BaselinePlacerEquivalence, ComponentsOutOfIdOrder) {
  const Benchmark bench = make_synthetic(3);
  std::vector<Component> reversed = Allocation(bench.allocation).components();
  std::reverse(reversed.begin(), reversed.end());
  const Allocation alloc(std::move(reversed));
  expect_same_baseline("reversed Synthetic3", alloc,
                       baseline_schedule(bench.graph, alloc, bench.wash),
                       derived_chip(alloc, 1));
}

}  // namespace
}  // namespace fbmb
