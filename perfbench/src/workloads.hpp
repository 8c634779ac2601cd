// The three workloads and the per-layer aggregation they share.

#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

struct WorkloadResult {
  Metrics metrics;
  Failures failures;
  /// False when a check found something other than the known capped
  /// fixpoint defect: an identity mismatch, a served result that differs
  /// from the direct run, or a simulator rejection of a converged chip.
  bool correct = true;
};

/// Per-layer sums over the traced run. "Fixed-set" counts are taken only
/// over the run's fixed job set (the first passes / replayed requests),
/// so they repeat exactly at a given seed; times use every traced job.
struct LayerAggregate {
  /// True when the outside latency covers the whole request (parse and
  /// serialization too), false when it covers run_job only.
  bool request_path = false;
  std::size_t requests = 0;   ///< requests driven through the layers
  std::size_t jobs = 0;       ///< of those, synthesized (cache misses)
  LayerTimes sum;             ///< span sums over all requests
  double sa_place_ms = 0.0;   ///< place time of SA jobs only
  std::uint64_t proposals_all = 0;
  std::uint64_t nodes_all = 0;
  double outside_ms = 0.0;   ///< untraced latency of the same requests
  double traced_ms = 0.0;    ///< wall of the traced path
  double untraced_ms = 0.0;  ///< wall of the same path, untraced
  double outside_engine_ms = 0.0;  ///< caller latency - engine wall_seconds
  std::size_t outside_engine_samples = 0;

  // Fixed-set counts.
  std::size_t fixed_jobs = 0;
  std::uint64_t binding_probes = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rounds = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t reused = 0;
  std::uint64_t nodes = 0;
  std::uint64_t fixpoints = 0;
  std::uint64_t capped = 0;

  /// Adds one traced request; `fixed` marks it as part of the fixed set.
  void add(const LayerTimes& times, const fbmb::SynthesisResult& result,
           bool fixed);
};

/// Inputs the per-layer emitter needs besides the aggregate.
struct LayerContext {
  double cache_hit_frac = 0.0;
  std::uint64_t cache_evictions = 0;
  std::size_t max_queue_depth = 0;
  double status_429_frac = 0.0;
  double late_ms_p99 = 0.0;
};

/// The cache and queue figures of `engine` as they stand now.
LayerContext engine_context(const fbmb::SynthesisEngine& engine);

/// Writes every per-layer metric named in BENCHMARK.json.
void emit_layer_metrics(const LayerAggregate& agg, const Failures& fixed,
                        const LayerContext& context, Metrics& metrics);

/// Writes the chip-quality and failure metrics of the end-to-end set.
void emit_quality(const Quality& quality, const Failures& fixed,
                  Metrics& metrics);

WorkloadResult run_batch_workload(const RunConfig& config);
WorkloadResult run_service_mix(const RunConfig& config);

}  // namespace perfbench
