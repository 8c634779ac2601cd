// Route–retime fixpoint benchmark: incremental core vs from-scratch loop.
//
// For every paper benchmark and both flow presets (DCSA and the BA
// baseline) this bench times route_until_consistent (persistent grid +
// footprint-verified path reuse) against route_until_consistent_reference
// (fresh grid + full re-route every round), end to end — grid
// construction, every routing round, and the retimings in between. The
// two fixpoints are verified to produce bit-identical (schedule, routing)
// pairs, and the JSON records per-round reuse fractions so regressions in
// the reuse rate are visible, not just wall time.
//
// With --threads N (N > 1) it also times cold synthesize_dcsa jobs on
// every paper benchmark, routing the SA candidates' fixpoints
// route_threads = N at once on an N-thread pool against route_threads =
// 1, with the SA restarts parallel on both sides (best of kJobReps
// interleaved runs). The two results must be byte-identical apart from
// their wall-clock fields; the JSON gains a "candidate_jobs" section with
// per-job and geomean job and route-stage speedups. The route stage is
// the job wall time minus the schedule, refine and place stages, so it
// is wall time on both sides.
//
//   build/bench/flow_perf [--json-out FILE] [--threads N]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/flow_core.hpp"
#include "core/synthesis.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "report/table.hpp"
#include "runtime/result_io.hpp"
#include "runtime/thread_pool.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/strings.hpp"

namespace {

using namespace fbmb;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 15;
constexpr int kJobReps = 15;

struct Scenario {
  std::string name;
  Allocation alloc;
  Schedule schedule;
  ChipSpec chip;
  Placement placement;
  RouterOptions router;
};

Scenario prepare_dcsa(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name + "/dcsa";
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kDcsa;
  sched.refine_storage = true;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  PlacerOptions placer;
  placer.restarts = 1;
  s.placement =
      place_components(s.alloc, s.schedule, bench.wash, s.chip, placer);
  return s;
}

Scenario prepare_baseline(const Benchmark& bench) {
  Scenario s;
  s.name = bench.name + "/baseline";
  s.alloc = Allocation(bench.allocation);
  SchedulerOptions sched;
  sched.policy = BindingPolicy::kBaseline;
  sched.refine_storage = false;
  s.schedule = schedule_bioassay(bench.graph, s.alloc, bench.wash, sched);
  s.chip = derive_grid(ChipSpec{}, allocation_area(s.alloc, 1));
  s.placement = place_components_baseline(s.alloc, s.schedule, s.chip,
                                          ConstructivePlacerOptions{});
  s.router.wash_aware_weights = false;
  return s;
}

struct FixpointRun {
  Schedule schedule;
  RoutingResult routing;
  FlowStats flow;
  double seconds = 0.0;  ///< best-of-kReps end-to-end fixpoint time
};

/// One timed end-to-end fixpoint execution. Reps of the incremental and
/// reference fixpoints are interleaved by the caller so load drift on
/// the host biases neither side; best-of filters the remaining noise.
template <typename FixpointFn>
void time_rep(const Scenario& s, const Benchmark& bench, FixpointFn fixpoint,
              int rep, FixpointRun& best) {
  Schedule schedule = s.schedule;
  StageTimes stages;
  FlowStats flow;
  const auto t0 = Clock::now();
  RoutingResult routing =
      fixpoint(schedule, bench.graph, s.alloc, s.chip, s.placement,
               bench.wash, s.router, stages, &flow);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (rep == 0 || seconds < best.seconds) best.seconds = seconds;
  if (rep == 0) {
    best.schedule = std::move(schedule);
    best.routing = std::move(routing);
    best.flow = std::move(flow);
  }
}

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct JobRun {
  std::string json;  ///< result JSON with the wall-clock fields zeroed
  double seconds = 0.0;        ///< best-of-kJobReps job wall time
  double route_seconds = 0.0;  ///< route stage wall time of that run
};

/// One timed cold synthesize_dcsa job; keeps the fastest run.
void time_job(const Benchmark& bench, const SynthesisOptions& options,
              int rep, JobRun& best) {
  SynthesisResult result = synthesize_dcsa(
      bench.graph, Allocation(bench.allocation), bench.wash, options);
  const StageTimes& st = result.stage_seconds;
  const double seconds = result.cpu_seconds;
  if (rep == 0 || seconds < best.seconds) {
    best.seconds = seconds;
    best.route_seconds = seconds - st.schedule - st.refine - st.place;
  }
  if (rep == 0) {
    result.cpu_seconds = 0.0;
    result.stage_seconds = StageTimes{};
    best.json = synthesis_result_to_json(result);
  }
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Cold synthesize_dcsa jobs, route_threads = `threads` vs 1, SA restarts
/// parallel on both sides. Appends the "candidate_jobs" JSON section and
/// returns false on any non-identical result.
bool run_candidate_jobs(int threads, std::ostringstream& json) {
  ThreadPool pool(static_cast<std::size_t>(threads));
  const auto on_pool = [&pool](std::vector<std::function<void()>>& tasks) {
    parallel_invoke(pool, tasks);
  };
  SynthesisOptions serial;
  serial.placer.restart_executor = on_pool;
  SynthesisOptions parallel = serial;
  parallel.router.route_threads = threads;
  parallel.router.route_executor = on_pool;

  TextTable table({"Job", "Serial (ms)", "Par (ms)", "Job spd",
                   "Route ser", "Route par", "Route spd"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});
  std::vector<double> job_speedups;
  std::vector<double> route_speedups;
  bool all_identical = true;
  json << ", \"candidate_jobs\": {\"threads\": " << threads
       << ", \"host_cores\": " << std::thread::hardware_concurrency()
       << ", \"reps\": " << kJobReps << ", \"jobs\": [";
  bool first = true;
  for (const Benchmark& bench : paper_benchmarks()) {
    JobRun ser;
    JobRun par;
    for (int rep = 0; rep < kJobReps; ++rep) {
      time_job(bench, serial, rep, ser);
      time_job(bench, parallel, rep, par);
    }
    const bool identical = ser.json == par.json;
    if (!identical) {
      all_identical = false;
      std::cerr << "MISMATCH: " << bench.name << "/dcsa: route_threads = "
                << threads << " differs from route_threads = 1\n";
    }
    const double job_speedup = ser.seconds / par.seconds;
    const double route_speedup = ser.route_seconds / par.route_seconds;
    job_speedups.push_back(job_speedup);
    route_speedups.push_back(route_speedup);
    table.add_row({bench.name + "/dcsa", format_double(ser.seconds * 1e3, 2),
                   format_double(par.seconds * 1e3, 2),
                   format_double(job_speedup, 2),
                   format_double(ser.route_seconds * 1e3, 2),
                   format_double(par.route_seconds * 1e3, 2),
                   format_double(route_speedup, 2)});
    json << (first ? "" : ",") << "\n    {\"name\": \"" << bench.name
         << "/dcsa\", \"serial_seconds\": " << num(ser.seconds)
         << ", \"parallel_seconds\": " << num(par.seconds)
         << ", \"job_speedup\": " << num(job_speedup)
         << ", \"serial_route_seconds\": " << num(ser.route_seconds)
         << ", \"parallel_route_seconds\": " << num(par.route_seconds)
         << ", \"route_speedup\": " << num(route_speedup)
         << ", \"identical\": " << (identical ? "true" : "false") << "}";
    first = false;
  }
  const double job_geomean = geometric_mean(job_speedups);
  const double route_geomean = geometric_mean(route_speedups);
  // host_cores lets the gate tell "candidate routing regressed" from
  // "bench host cannot express parallelism".
  json << "\n  ], \"geomean_job_speedup\": " << num(job_geomean)
       << ", \"geomean_route_speedup\": " << num(route_geomean)
       << ", \"identical\": " << (all_identical ? "true" : "false") << "}";

  std::cout << "\nCOLD DCSA JOBS: SA candidates routed " << threads
            << " at once vs serially\n(best of " << kJobReps
            << " interleaved runs; SA restarts parallel on both sides; "
               "results verified byte-identical)\n\n"
            << table << "\nGeomean job speedup:   "
            << format_double(job_geomean, 3)
            << "\nGeomean route speedup: " << format_double(route_geomean, 3)
            << "\n";
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  TextTable table({"Scenario", "Tasks", "Rounds", "Ref (ms)", "Incr (ms)",
                   "Speedup", "Reused", "Rerouted"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});

  std::ostringstream json;
  json << "{\"reps\": " << kReps << ", \"benchmarks\": [";
  bool first = true;
  bool all_equal = true;
  double log_speedup_sum = 0.0;
  int speedup_count = 0;
  // A flow that converges in one round has no route–retime repetition to
  // eliminate — the incremental core's theoretical best there is parity.
  // Track the multi-round flows separately so the number that measures
  // the reuse machinery is not diluted by noise on microsecond-scale
  // single-round rows.
  double log_speedup_sum_multi = 0.0;
  int speedup_count_multi = 0;

  for (const auto& bench : paper_benchmarks()) {
    for (const Scenario& s :
         {prepare_dcsa(bench), prepare_baseline(bench)}) {
      FixpointRun incremental;
      FixpointRun reference;
      for (int rep = 0; rep < kReps; ++rep) {
        time_rep(s, bench,
                 [](Schedule& schedule, const SequencingGraph& graph,
                    const Allocation& alloc, const ChipSpec& chip,
                    const Placement& placement, const WashModel& wash,
                    const RouterOptions& router, StageTimes& stages,
                    FlowStats* flow) {
                   return route_until_consistent(schedule, graph, alloc,
                                                 chip, placement, wash,
                                                 router, stages, {}, flow);
                 },
                 rep, incremental);
        time_rep(s, bench,
                 [](Schedule& schedule, const SequencingGraph& graph,
                    const Allocation& alloc, const ChipSpec& chip,
                    const Placement& placement, const WashModel& wash,
                    const RouterOptions& router, StageTimes& stages,
                    FlowStats* flow) {
                   return route_until_consistent_reference(
                       schedule, graph, alloc, chip, placement, wash,
                       router, stages, {}, flow);
                 },
                 rep, reference);
      }

      const bool identical =
          identical_schedules(incremental.schedule, reference.schedule) &&
          identical_routing(incremental.routing, reference.routing);
      if (!identical) {
        all_equal = false;
        std::cerr << "MISMATCH: " << s.name
                  << ": incremental fixpoint differs from reference\n";
      }

      const double speedup = incremental.seconds > 0.0
                                 ? reference.seconds / incremental.seconds
                                 : 0.0;
      if (speedup > 0.0) {
        log_speedup_sum += std::log(speedup);
        ++speedup_count;
        if (incremental.flow.rounds > 1) {
          log_speedup_sum_multi += std::log(speedup);
          ++speedup_count_multi;
        }
      }
      const FlowStats& flow = incremental.flow;
      table.add_row({s.name, std::to_string(s.schedule.transports.size()),
                     std::to_string(flow.rounds),
                     format_double(reference.seconds * 1e3, 3),
                     format_double(incremental.seconds * 1e3, 3),
                     format_double(speedup, 2),
                     std::to_string(flow.transports_reused),
                     std::to_string(flow.transports_rerouted)});

      json << (first ? "" : ",") << "\n  {\"name\": \"" << s.name
           << "\", \"transports\": " << s.schedule.transports.size()
           << ", \"reference_seconds\": " << num(reference.seconds)
           << ", \"flat_seconds\": " << num(incremental.seconds)
           << ", \"speedup\": " << num(speedup)
           << ", \"identical\": " << (identical ? "true" : "false")
           << ", \"flow\": {";
      write_field_members(json, flow);
      json << ", \"rounds_detail\": [";
      for (std::size_t r = 0; r < flow.round_details.size(); ++r) {
        const FlowRound& round = flow.round_details[r];
        const std::uint64_t total =
            round.transports_rerouted + round.transports_reused;
        json << (r ? "," : "") << "{\"rerouted\": "
             << round.transports_rerouted
             << ", \"reused\": " << round.transports_reused
             << ", \"reuse_fraction\": "
             << num(total ? static_cast<double>(round.transports_reused) /
                                static_cast<double>(total)
                          : 0.0)
             << "}";
      }
      json << "]}}";
      first = false;
    }
  }
  const double geomean =
      speedup_count ? std::exp(log_speedup_sum / speedup_count) : 0.0;
  const double geomean_multi =
      speedup_count_multi
          ? std::exp(log_speedup_sum_multi / speedup_count_multi)
          : 0.0;
  json << "\n], \"geomean_speedup\": " << num(geomean)
       << ", \"geomean_speedup_multi_round\": " << num(geomean_multi)
       << ", \"multi_round_configs\": " << speedup_count_multi;

  std::cout << "ROUTE-RETIME FIXPOINT: incremental core vs from-scratch "
               "reference\n(best of "
            << kReps
            << " interleaved runs per fixpoint; end-to-end including grid "
               "build and retiming; results verified identical)\n\n"
            << table << "\nGeomean speedup (all configs):         "
            << format_double(geomean, 3)
            << "\nGeomean speedup (multi-round flows):  "
            << format_double(geomean_multi, 3) << " over "
            << speedup_count_multi << " configs\n";
  if (threads > 1 && !run_candidate_jobs(threads, json)) all_equal = false;
  json << "}";
  std::cout << "\nJSON:\n" << json.str() << "\n";
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json.str() << "\n";
    std::cout << "wrote " << json_out << "\n";
  }
  return all_equal ? 0 : 1;
}
