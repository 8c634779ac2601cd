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
// Each timing is the best of 15 reps, core and reference interleaved.
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

/// Placer jobs take 0.05-10 ms, so each side gets 15 interleaved reps and
/// keeps its best: a single slow rep from host noise cannot move a row.
constexpr int kReps = 15;

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

template <class Out>
struct Timing {
  double core_s = 0.0;
  double ref_s = 0.0;
  Out core;
  Out ref;
};

/// Best-of-kReps seconds of `core` and `reference`, with their reps
/// interleaved so load drift on the host biases neither side; keeps each
/// side's last output.
template <class CoreFn, class RefFn>
auto time_interleaved(CoreFn core, RefFn reference) {
  Timing<decltype(core())> t;
  auto keep_best = [](double& best, Clock::time_point t0, int rep) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0 || seconds < best) best = seconds;
  };
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    t.core = core();
    keep_best(t.core_s, t0, rep);
    t0 = Clock::now();
    t.ref = reference();
    keep_best(t.ref_s, t0, rep);
  }
  return t;
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

    PlaceStats stats;
    const auto t = time_interleaved(
        [&] {
          PlaceStats rep_stats;
          auto out = place_component_candidates(s.alloc, s.schedule, s.wash,
                                                s.chip, s.placer, &rep_stats);
          stats = rep_stats;  // keep the last rep's counters
          return out;
        },
        [&] {
          return place_component_candidates_reference(
              s.alloc, s.schedule, s.wash, s.chip, s.placer);
        });
    const bool same = identical(s, t.core, t.ref);

    if (!same) {
      all_equal = false;
      std::cerr << "MISMATCH: " << s.name
                << ": placer core result differs from reference\n";
    }

    const double speedup = t.core_s > 0.0 ? t.ref_s / t.core_s : 0.0;
    const double proposals_per_s =
        t.core_s > 0.0 ? static_cast<double>(stats.proposals) / t.core_s : 0.0;
    table.add_row({s.name, std::to_string(s.alloc.size()),
                   std::to_string(s.nets.size()),
                   format_double(t.ref_s * 1e3, 3),
                   format_double(t.core_s * 1e3, 3),
                   format_double(speedup, 2),
                   format_double(proposals_per_s, 0),
                   std::to_string(stats.accepts)});

    json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
         << "\", \"placer\": \"sa\", \"components\": " << s.alloc.size()
         << ", \"nets\": " << s.nets.size()
         << ", \"reference_seconds\": " << num(t.ref_s)
         << ", \"core_seconds\": " << num(t.core_s)
         << ", \"speedup\": " << num(speedup)
         << ", \"proposals_per_second\": " << num(proposals_per_s)
         << ", \"identical\": " << (same ? "true" : "false")
         << ", \"placement\": ";
    write_fields(json, stats);
    json << "}";
    first = false;
  }

  TextTable baseline_table(
      {"Benchmark", "Comps", "Grid", "Ref (ms)", "Core (ms)", "Speedup"},
      {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
       Align::kRight, Align::kRight});
  for (const auto& bench : paper_benchmarks()) {
    const BaselineScenario s = prepare_baseline(bench);
    const auto t = time_interleaved(
        [&] { return place_components_baseline(s.alloc, s.schedule, s.chip); },
        [&] {
          return place_components_baseline_reference(s.alloc, s.schedule,
                                                     s.chip);
        });
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
            << " interleaved runs per placer; results verified "
               "identical)\n\n"
            << table
            << "\nBA PLACER: cached footprints + prefix-summed legality vs "
               "per-candidate rebuild\n(best of " << kReps
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
