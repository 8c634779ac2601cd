#include <algorithm>

#include "workloads.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void LayerAggregate::add(const LayerTimes& t,
                         const fbmb::SynthesisResult& result, bool fixed) {
  ++requests;
  sum.parse += t.parse;
  sum.fingerprint += t.fingerprint;
  sum.cache_lookup += t.cache_lookup;
  sum.cache_insert += t.cache_insert;
  sum.result_json += t.result_json;
  sum.result_json_bytes += t.result_json_bytes;
  if (t.cache_hit) return;
  ++jobs;
  sum.schedule += t.schedule;
  sum.place += t.place;
  sum.route += t.route;
  sum.grid_build += t.grid_build;
  sum.retime += t.retime;
  sum.core += t.core;
  sum.slowest_fixpoint += t.slowest_fixpoint;
  nodes_all += t.nodes_expanded;
  proposals_all += result.place_stats.proposals;
  if (result.place_stats.proposals > 0) sa_place_ms += t.place;
  if (!fixed) return;
  ++fixed_jobs;
  binding_probes += result.sched_stats.binding_probes;
  proposals += result.place_stats.proposals;
  accepts += result.place_stats.accepts;
  rounds += result.flow_stats.rounds;
  rerouted += result.flow_stats.transports_rerouted;
  reused += result.flow_stats.transports_reused;
  nodes += t.nodes_expanded;
  fixpoints += t.fixpoints;
  capped += t.capped_fixpoints;
}

LayerContext engine_context(const fbmb::SynthesisEngine& engine) {
  const fbmb::ResultCache& cache = engine.cache();
  LayerContext context;
  context.cache_hit_frac =
      ratio(static_cast<double>(cache.hits()),
            static_cast<double>(cache.hits() + cache.misses()));
  context.cache_evictions = cache.evictions();
  context.max_queue_depth = engine.pool().max_queue_depth();
  return context;
}

void emit_layer_metrics(const LayerAggregate& a, const Failures& fixed,
                        const LayerContext& c, Metrics& m) {
  const double jobs = static_cast<double>(a.jobs);
  const double requests = static_cast<double>(a.requests);
  const double fixed_jobs = static_cast<double>(a.fixed_jobs);
  const double layer_ms =
      a.request_path ? a.sum.request_path() : a.sum.engine_path();

  m.set("schedule.ms_per_job", ratio(a.sum.schedule, jobs), "ms");
  m.set("schedule.binding_probes", ratio(a.binding_probes, fixed_jobs),
        "count");

  m.set("place.ms_per_job", ratio(a.sum.place, jobs), "ms");
  m.set("place.proposals", ratio(a.proposals, fixed_jobs), "count");
  m.set("place.ns_per_proposal", ratio(a.sa_place_ms * 1e6, a.proposals_all),
        "ns");
  m.set("place.accept_frac", ratio(a.accepts, a.proposals), "fraction");

  const double search_ms = a.sum.route - a.sum.grid_build - a.sum.retime;
  m.set("route.ms_per_job", ratio(a.sum.route, jobs), "ms");
  m.set("route.grid_build_ms", ratio(a.sum.grid_build, jobs), "ms");
  m.set("route.retime_ms", ratio(a.sum.retime, jobs), "ms");
  m.set("route.rounds_per_fixpoint", ratio(a.rounds, a.fixpoints), "count");
  m.set("route.reuse_frac", ratio(a.reused, a.reused + a.rerouted),
        "fraction");
  m.set("route.nodes_expanded", ratio(a.nodes, fixed_jobs), "count");
  m.set("route.ns_per_node", ratio(search_ms * 1e6, a.nodes_all), "ns");
  m.set("route.capped_frac", ratio(a.capped, a.fixpoints), "fraction");

  m.set("core.ms_per_job", ratio(a.sum.core, jobs), "ms");
  m.set("core.fixpoints_per_job", ratio(a.fixpoints, fixed_jobs), "count");
  m.set("core.critical_fixpoint_frac",
        ratio(a.sum.slowest_fixpoint, a.sum.route), "fraction");

  m.set("runtime.fingerprint_us", ratio(a.sum.fingerprint * 1e3, requests),
        "us");
  m.set("runtime.cache_lookup_us",
        ratio(a.sum.cache_lookup * 1e3, requests), "us");
  m.set("runtime.cache_insert_us", ratio(a.sum.cache_insert * 1e3, jobs),
        "us");
  m.set("runtime.cache_hit_frac", c.cache_hit_frac, "fraction");
  m.set("runtime.cache_evictions", static_cast<double>(c.cache_evictions),
        "count");
  m.set("runtime.result_json_us", ratio(a.sum.result_json * 1e3, requests),
        "us");
  m.set("runtime.result_json_kb",
        ratio(static_cast<double>(a.sum.result_json_bytes) / 1024.0,
              requests),
        "KiB");
  m.set("runtime.max_queue_depth", static_cast<double>(c.max_queue_depth),
        "count");
  m.set("runtime.overhead_ms", ratio(a.outside_ms - layer_ms, requests),
        "ms");

  m.set("service.outside_engine_ms",
        ratio(a.outside_engine_ms, a.outside_engine_samples), "ms");
  m.set("service.parse_us", ratio(a.sum.parse * 1e3, requests), "us");
  m.set("service.status_429_frac", c.status_429_frac, "fraction");

  m.set("sim.invalid_capped", static_cast<double>(fixed.invalid_capped),
        "count");
  m.set("sim.invalid_converged", static_cast<double>(fixed.invalid_converged),
        "count");
  m.set("loadgen.late_ms_p99", c.late_ms_p99, "ms");
  m.set("trace.coverage_frac", ratio(layer_ms, a.outside_ms), "fraction");
  m.set("trace.overhead_frac",
        ratio(a.traced_ms - a.untraced_ms, a.untraced_ms), "fraction");
}

void emit_quality(const Quality& q, const Failures& fixed, Metrics& m) {
  const double chips = static_cast<double>(std::max<std::size_t>(q.chips, 1));
  m.set("completion_time_s", q.completion_time_s / chips, "s");
  m.set("channel_length_mm", q.channel_length_mm / chips, "mm");
  m.set("wash_time_s", q.wash_time_s / chips, "s");
  m.set("cache_time_s", q.cache_time_s / chips, "s");
  m.set("valid_frac",
        1.0 - ratio(static_cast<double>(fixed.failed),
                    static_cast<double>(fixed.attempted)),
        "fraction");
}

}  // namespace perfbench
