// Placer-core micro-benchmark: each placer core vs its reference.
//
// SA: for every paper benchmark this bench builds one schedule with the
// paper's DCSA flow, then times place_component_candidates (delta
// energies, in-place moves, occupancy-grid legality) against
// place_component_candidates_reference (per-proposal Placement copies and
// full energy recomputation), verifying along the way that the two
// produce bit-identical placements and energies.
//
// BA: for every paper benchmark it builds the baseline flow's schedule
// and times place_components_baseline (cached footprints, prefix-summed
// legality) against place_components_baseline_reference (every other
// footprint rebuilt per candidate origin), verifying identical
// placements.
//
// Reports a table per placer and one JSON object whose "benchmarks" array
// holds a row per (benchmark, placer) with its timings, speedup and
// identity flag (plus, for SA, proposal throughput and search counters).
//
//   build/bench/place_perf [--json-out FILE]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "place/constructive_placer.hpp"
#include "place/reference_placer.hpp"
#include "place/sa_placer.hpp"
#include "report/table.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 3;
/// BA jobs take 0.1-10 ms, so they get more (interleaved) reps.
constexpr int kBaselineReps = 15;

struct Scenario {
  std::string name;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
  WashModel wash;
  PlacerOptions placer;
  std::vector<Net> nets;
};

Scenario prepare(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name;
  s.alloc = Allocation(bench.allocation);
  s.wash = bench.wash;
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  s.placer.restarts = 1;  // per-restart proposal throughput
  s.nets = build_nets(s.schedule, s.wash, s.placer.beta, s.placer.gamma);
  return s;
}

/// Same origin and rotation for every component.
bool same_positions(const Allocation& alloc, const Placement& a,
                    const Placement& b) {
  if (a.size() != b.size()) return false;
  for (const auto& comp : alloc.components()) {
    if (a.at(comp.id).origin != b.at(comp.id).origin ||
        a.at(comp.id).rotated != b.at(comp.id).rotated) {
      return false;
    }
  }
  return true;
}

bool identical(const Scenario& s, const std::vector<Placement>& a,
               const std::vector<Placement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (!same_positions(s.alloc, a[r], b[r])) return false;
    const double ea =
        placement_energy(a[r], s.alloc, s.nets, s.placer.compaction_weight);
    const double eb =
        placement_energy(b[r], s.alloc, s.nets, s.placer.compaction_weight);
    if (ea != eb) return false;  // bitwise
  }
  return true;
}

struct BaselineScenario {
  std::string name;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
};

BaselineScenario prepare_baseline(const Benchmark& bench) {
  BaselineScenario s;
  s.name = bench.name;
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kBaseline;
  sched.refine_storage = false;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  return s;
}

struct BaselineTiming {
  double core_s = 0.0;
  double ref_s = 0.0;
  Placement core;
  Placement ref;
};

/// Best-of-kBaselineReps seconds of the core and the reference, with
/// their reps interleaved so load drift on the host biases neither side.
BaselineTiming time_baseline(const BaselineScenario& s) {
  BaselineTiming t;
  auto keep_best = [](double& best, Clock::time_point t0, int rep) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0 || seconds < best) best = seconds;
  };
  for (int rep = 0; rep < kBaselineReps; ++rep) {
    auto t0 = Clock::now();
    t.core = place_components_baseline(s.alloc, s.schedule, s.chip);
    keep_best(t.core_s, t0, rep);
    t0 = Clock::now();
    t.ref = place_components_baseline_reference(s.alloc, s.schedule, s.chip);
    keep_best(t.ref_s, t0, rep);
  }
  return t;
}

template <typename PlaceFn>
double time_place(const Scenario& s, PlaceFn place,
                  std::vector<Placement>& last) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    std::vector<Placement> result = place(s);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0 || seconds < best) best = seconds;
    last = std::move(result);
  }
  return best;
}

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  TextTable table({"Benchmark", "Comps", "Nets", "Ref (ms)", "Core (ms)",
                   "Speedup", "Proposals/s", "Accepts"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::ostringstream json;
  json << "{\"reps\": " << kReps << ", \"benchmarks\": [";
  bool first = true;
  bool all_equal = true;

  for (const auto& bench : paper_benchmarks()) {
    const Scenario s = prepare(bench);

    std::vector<Placement> core;
    PlaceStats stats;
    const double core_s = time_place(
        s,
        [&stats](const Scenario& sc) {
          PlaceStats rep_stats;
          auto out = place_component_candidates(sc.alloc, sc.schedule,
                                                sc.wash, sc.chip, sc.placer,
                                                &rep_stats);
          stats = rep_stats;  // keep the last rep's counters
          return out;
        },
        core);
    std::vector<Placement> ref;
    const double ref_s = time_place(
        s,
        [](const Scenario& sc) {
          return place_component_candidates_reference(
              sc.alloc, sc.schedule, sc.wash, sc.chip, sc.placer);
        },
        ref);

    if (!identical(s, core, ref)) {
      all_equal = false;
      std::cerr << "MISMATCH: " << s.name
                << ": placer core result differs from reference\n";
    }

    const double speedup = core_s > 0.0 ? ref_s / core_s : 0.0;
    const double proposals_per_s =
        core_s > 0.0 ? static_cast<double>(stats.proposals) / core_s : 0.0;
    table.add_row({s.name, std::to_string(s.alloc.size()),
                   std::to_string(s.nets.size()),
                   format_double(ref_s * 1e3, 3),
                   format_double(core_s * 1e3, 3),
                   format_double(speedup, 2),
                   format_double(proposals_per_s, 0),
                   std::to_string(stats.accepts)});

    json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
         << "\", \"placer\": \"sa\", \"components\": " << s.alloc.size()
         << ", \"nets\": " << s.nets.size()
         << ", \"reference_seconds\": " << num(ref_s)
         << ", \"core_seconds\": " << num(core_s)
         << ", \"speedup\": " << num(speedup)
         << ", \"proposals_per_second\": " << num(proposals_per_s)
         << ", \"identical\": " << (identical(s, core, ref) ? "true" : "false")
         << ", \"placement\": {\"proposals\": " << stats.proposals
         << ", \"accepts\": " << stats.accepts
         << ", \"delta_evals\": " << stats.delta_evals
         << ", \"full_evals\": " << stats.full_evals
         << ", \"occupancy_probes\": " << stats.occupancy_probes << "}}";
    first = false;
  }

  TextTable baseline_table(
      {"Benchmark", "Comps", "Grid", "Ref (ms)", "Core (ms)", "Speedup"},
      {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight});
  for (const auto& bench : paper_benchmarks()) {
    const BaselineScenario s = prepare_baseline(bench);
    const BaselineTiming t = time_baseline(s);
    const bool same = same_positions(s.alloc, t.core, t.ref);
    if (!same) {
      all_equal = false;
      std::cerr << "MISMATCH: " << s.name
                << ": BA placer core result differs from reference\n";
    }
    const double speedup = t.core_s > 0.0 ? t.ref_s / t.core_s : 0.0;
    baseline_table.add_row(
        {s.name, std::to_string(s.alloc.size()),
         std::to_string(s.chip.grid_width) + "x" +
             std::to_string(s.chip.grid_height),
         format_double(t.ref_s * 1e3, 3), format_double(t.core_s * 1e3, 3),
         format_double(speedup, 2)});
    json << ",\n  {\"name\": \"" << s.name
         << "/BA\", \"placer\": \"ba\", \"components\": "
         << s.alloc.size() << ", \"reference_seconds\": " << num(t.ref_s)
         << ", \"core_seconds\": " << num(t.core_s)
         << ", \"speedup\": " << num(speedup)
         << ", \"identical\": " << (same ? "true" : "false") << "}";
  }
  json << "\n]}";

  std::cout << "PLACER CORE: incremental delta-energy SA vs full-recompute "
               "reference\n(best of " << kReps
            << " runs per placer; results verified identical)\n\n"
            << table
            << "\nBA PLACER: cached footprints + prefix-summed legality vs "
               "per-candidate rebuild\n(best of " << kBaselineReps
            << " interleaved runs per placer; results verified "
               "identical)\n\n"
            << baseline_table << "\nJSON:\n" << json.str() << "\n";
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_equal ? 0 : 1;
}
