#include "layers.hpp"

#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/flow_core.hpp"
#include "place/constructive_placer.hpp"
#include "place/sa_placer.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/result_io.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule/metrics.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

/// The options a job runs under inside SynthesisEngine::run_job: the
/// engine's execution policy (parallel SA restarts, routing threads, both
/// on `pool`), then what synthesize_dcsa / synthesize_baseline force
/// before calling synthesize_custom.
fbmb::SynthesisOptions engine_options(
    const fbmb::SynthesisJob& job, const fbmb::SynthesisEngineOptions& engine,
    fbmb::ThreadPool& pool) {
  fbmb::SynthesisOptions options = job.options;
  const auto on_pool = [&pool](std::vector<std::function<void()>>& tasks) {
    fbmb::parallel_invoke(pool, tasks);
  };
  if (options.router.route_threads <= 1 && engine.route_threads > 1) {
    options.router.route_threads = static_cast<int>(engine.route_threads);
  }
  if (options.router.route_threads > 1 && !options.router.route_executor) {
    options.router.route_executor = on_pool;
  }
  if (engine.parallel_restarts) options.placer.restart_executor = on_pool;
  switch (job.flow) {
    case fbmb::FlowPreset::kDcsa:
      options.scheduler.policy = fbmb::BindingPolicy::kDcsa;
      options.scheduler.refine_storage = true;
      options.router.wash_aware_weights = true;
      options.router.conflict_aware = true;
      options.placement = fbmb::PlacementStrategy::kSimulatedAnnealing;
      break;
    case fbmb::FlowPreset::kBaseline:
      options.scheduler.policy = fbmb::BindingPolicy::kBaseline;
      options.scheduler.refine_storage = false;
      options.router.wash_aware_weights = false;
      options.router.conflict_aware = true;
      options.placement = fbmb::PlacementStrategy::kConstructive;
      break;
    case fbmb::FlowPreset::kCustom:
      break;
  }
  return options;
}

}  // namespace

fbmb::SynthesisResult synthesize_by_layers(
    const fbmb::SynthesisJob& job, const fbmb::SynthesisEngineOptions& engine,
    fbmb::ThreadPool& pool, LayerTimes& times) {
  const fbmb::SynthesisOptions options = engine_options(job, engine, pool);

  // schedule: binding and list scheduling, then storage refinement.
  auto t0 = Clock::now();
  fbmb::SchedulerOptions scheduler_options = options.scheduler;
  scheduler_options.refine_storage = false;
  fbmb::SchedStats sched_stats;
  fbmb::Schedule schedule =
      fbmb::schedule_bioassay(job.graph, job.allocation, job.wash,
                              scheduler_options, &sched_stats);
  if (options.scheduler.refine_storage) {
    fbmb::refine_channel_storage(schedule);
  }
  times.schedule += ms_since(t0);

  // place: grid derivation, then SA candidates or BA's constructive
  // placement.
  t0 = Clock::now();
  const fbmb::ChipSpec chip = fbmb::derive_grid(
      options.chip,
      fbmb::allocation_area(job.allocation, options.chip.component_spacing));
  fbmb::PlaceStats place_stats;
  std::vector<fbmb::Placement> candidates;
  const bool constructive =
      options.placement == fbmb::PlacementStrategy::kConstructive;
  if (constructive) {
    candidates.push_back(fbmb::place_components_baseline(
        job.allocation, schedule, chip, options.baseline_placer));
  } else {
    candidates = fbmb::place_component_candidates(
        job.allocation, schedule, job.wash, chip, options.placer,
        &place_stats);
  }
  times.place += ms_since(t0);

  // route: one route–retime fixpoint per candidate; core: the candidate's
  // schedule copy, its metrics, and best-candidate selection.
  fbmb::SynthesisResult best;
  bool have_best = false;
  fbmb::FlowStats flow_total;
  fbmb::StageTimes stages;
  for (fbmb::Placement& placement : candidates) {
    t0 = Clock::now();
    fbmb::Schedule trial = schedule;
    times.core += ms_since(t0);

    t0 = Clock::now();
    const fbmb::StageTimes before = stages;
    fbmb::FlowStats flow_stats;
    fbmb::RoutingResult routing = fbmb::route_until_consistent(
        trial, job.graph, job.allocation, chip, placement, job.wash,
        options.router, stages, options.checkpoint, &flow_stats);
    const double fixpoint_ms = ms_since(t0);
    times.route += fixpoint_ms;
    times.grid_build += (stages.grid_build - before.grid_build) * 1e3;
    times.retime += (stages.retime - before.retime) * 1e3;
    times.slowest_fixpoint = std::max(times.slowest_fixpoint, fixpoint_ms);
    ++times.fixpoints;
    times.capped_fixpoints += routing.stats.fixpoints_capped;
    times.nodes_expanded += routing.stats.nodes_expanded;

    t0 = Clock::now();
    flow_total += flow_stats;
    fbmb::SynthesisResult result;
    result.stats = fbmb::compute_schedule_stats(trial, job.allocation);
    result.completion_time = result.stats.completion_time;
    result.utilization = result.stats.utilization;
    result.total_cache_time = result.stats.total_cache_time;
    result.channel_length_mm =
        routing.total_channel_length_mm(chip.cell_pitch_mm);
    result.channel_wash_time = routing.total_wash_time;
    result.chip = chip;
    result.schedule = std::move(trial);
    result.placement = std::move(placement);
    result.routing = std::move(routing);
    const auto key = [](const fbmb::SynthesisResult& r) {
      return std::make_tuple(r.completion_time, r.channel_length_mm,
                             r.channel_wash_time);
    };
    if (!have_best || key(result) < key(best)) {
      best = std::move(result);
      have_best = true;
    }
    times.core += ms_since(t0);
  }
  best.stage_seconds = stages;
  best.place_stats = place_stats;
  best.sched_stats = sched_stats;
  best.flow_stats = std::move(flow_total);
  return best;
}

LayeredOutcome serve_by_layers(const std::string& body,
                               const fbmb::SynthesisJob* job,
                               fbmb::ResultCache& cache,
                               const fbmb::SynthesisEngineOptions& engine,
                               fbmb::ThreadPool& pool) {
  LayeredOutcome out;
  LayerTimes& times = out.times;

  auto t0 = Clock::now();
  std::string error;
  std::optional<fbmb::service::SynthesizeRequest> request =
      fbmb::service::parse_synthesize_request(body, error);
  times.parse += ms_since(t0);
  if (!request) throw std::runtime_error("request rejected: " + error);
  if (job == nullptr) job = &request->job;

  const auto engine_start = Clock::now();
  t0 = Clock::now();
  const fbmb::Fingerprint key = fbmb::fingerprint_inputs(
      job->graph, job->allocation, job->wash, job->options, job->flow);
  times.fingerprint += ms_since(t0);

  t0 = Clock::now();
  std::optional<fbmb::SynthesisResult> cached = cache.lookup(key);
  times.cache_lookup += ms_since(t0);

  if (cached) {
    out.result = std::move(*cached);
    times.cache_hit = true;
  } else {
    out.result = synthesize_by_layers(*job, engine, pool, times);
    t0 = Clock::now();
    cache.insert(key, out.result);
    times.cache_insert += ms_since(t0);
  }
  times.engine_wall = ms_since(engine_start);

  t0 = Clock::now();
  out.result_json = fbmb::synthesis_result_to_json(out.result);
  times.result_json += ms_since(t0);
  times.result_json_bytes = out.result_json.size();
  return out;
}

}  // namespace perfbench
