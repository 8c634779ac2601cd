// The traced path: one job or request driven through each layer's public
// function in flow order, with a span (wall time) around every call.
//
// synthesize_by_layers mirrors synthesize_custom (after the preset has
// forced its options) call for call, so its result must equal the
// engine's bit for bit; the benchmark fails when it does not. If the
// library's flow order changes, that check is what keeps these per-layer
// numbers describing the same program.

#pragma once

#include <cstdint>
#include <string>

#include "runtime/result_cache.hpp"
#include "runtime/synthesis_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

/// Span totals of one job, milliseconds, plus the counts read at the same
/// boundaries.
struct LayerTimes {
  double parse = 0.0;         ///< service: parse_synthesize_request
  double fingerprint = 0.0;   ///< runtime: fingerprint_inputs
  double cache_lookup = 0.0;  ///< runtime: ResultCache::lookup
  double cache_insert = 0.0;  ///< runtime: ResultCache::insert
  double schedule = 0.0;      ///< schedule_bioassay + refine_channel_storage
  double place = 0.0;         ///< derive_grid + placement candidates
  double route = 0.0;         ///< every route_until_consistent call
  double grid_build = 0.0;    ///< part of route: grid builds and resets
  double retime = 0.0;        ///< part of route: retiming between rounds
  double core = 0.0;          ///< candidate copies, metrics and selection
  double result_json = 0.0;   ///< runtime: synthesis_result_to_json
  double slowest_fixpoint = 0.0;
  std::size_t fixpoints = 0;
  std::uint64_t capped_fixpoints = 0;
  std::uint64_t nodes_expanded = 0;  ///< A* pops over every fixpoint
  std::size_t result_json_bytes = 0;
  bool cache_hit = false;
  /// Wall time from fingerprint to insert: the part run_job does.
  double engine_wall = 0.0;

  /// Sum of the spans run_job covers (grid_build and retime lie inside
  /// route).
  double engine_path() const {
    return fingerprint + cache_lookup + cache_insert + schedule + place +
           route + core;
  }
  /// engine_path plus the request parse and the result serialization.
  double request_path() const { return parse + engine_path() + result_json; }
};

/// synthesize_dcsa / synthesize_baseline / synthesize_custom of `job`,
/// one layer call at a time, under the execution policy an engine built
/// with `engine` applies: SA restarts and routing workers run on `pool`
/// exactly as that engine runs them.
fbmb::SynthesisResult synthesize_by_layers(
    const fbmb::SynthesisJob& job, const fbmb::SynthesisEngineOptions& engine,
    fbmb::ThreadPool& pool, LayerTimes& times);

struct LayeredOutcome {
  fbmb::SynthesisResult result;
  std::string result_json;
  LayerTimes times;
};

/// The request path: parse `body`, fingerprint, look up `cache`, run the
/// flow by layers on a miss and insert, then serialize. When `job` is
/// given it is synthesized instead of the parsed job (the batch workloads
/// build their jobs directly; the parse is still timed).
LayeredOutcome serve_by_layers(const std::string& body,
                               const fbmb::SynthesisJob* job,
                               fbmb::ResultCache& cache,
                               const fbmb::SynthesisEngineOptions& engine,
                               fbmb::ThreadPool& pool);

}  // namespace perfbench
