// paper_suite and scale_route: one caller runs SynthesisEngine::run_job
// in a closed loop over whole passes of a fixed input set, each pass with
// fresh placer seeds drawn from the workload seed, so every job misses
// the cache (cold job wall time).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/synthetic.hpp"
#include "graph/assay_parser.hpp"
#include "report/json.hpp"
#include "runtime/result_io.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// One assay of the input set, with the request field that names it.
struct Assay {
  fbmb::Benchmark bench;
  std::string request_field;  ///< "benchmark": ... or "assay": ...
};

/// scale_route's assays: paper-shaped synthetic graphs of 60-100
/// operations with Synthetic4's allocation (7,4,4,3 per 50 operations)
/// scaled to the operation count. Generator seeds are fixed, like the
/// paper's Synthetic1-4.
fbmb::Benchmark make_scaled(int operations) {
  const auto scaled = [operations](int per_50) {
    return std::max(1, (per_50 * operations + 25) / 50);
  };
  fbmb::SyntheticSpec spec;
  spec.operations = operations;
  spec.seed = 0x5CA1E000u + static_cast<std::uint64_t>(operations);
  spec.allocation = {scaled(7), scaled(4), scaled(4), scaled(3)};
  fbmb::Benchmark bench;
  bench.name = "Scaled" + std::to_string(operations);
  bench.graph = fbmb::generate_synthetic_graph(spec);
  bench.allocation = spec.allocation;
  return bench;
}

std::vector<Assay> make_assays(const RunConfig& config) {
  std::vector<Assay> assays;
  if (config.workload == "paper_suite") {
    for (fbmb::Benchmark& bench : fbmb::paper_benchmarks()) {
      const std::string field =
          "\"benchmark\": " + fbmb::json_quote(bench.name);
      assays.push_back({std::move(bench), field});
    }
    return assays;
  }
  const int step = config.smoke ? 20 : 2;
  const int last = config.smoke ? 80 : 100;
  for (int operations = 60; operations <= last; operations += step) {
    fbmb::Benchmark bench = make_scaled(operations);
    const std::string field =
        "\"assay\": " + fbmb::json_quote(fbmb::write_assay(
                            bench.graph, &bench.allocation, &bench.wash));
    assays.push_back({std::move(bench), field});
  }
  return assays;
}

/// Pass `pass` of the input set: every assay under both presets, each
/// with its own placer seed (kept below 2^53 so the request body carries
/// it exactly), in a seeded order.
std::vector<JobSpec> make_pass(const RunConfig& config,
                               const std::vector<Assay>& assays, int pass) {
  std::vector<JobSpec> jobs;
  std::uint64_t index = static_cast<std::uint64_t>(pass) * 1024;
  for (const Assay& assay : assays) {
    for (fbmb::FlowPreset flow :
         {fbmb::FlowPreset::kDcsa, fbmb::FlowPreset::kBaseline}) {
      JobSpec spec;
      spec.name = assay.bench.name;
      spec.graph = assay.bench.graph;
      spec.allocation = assay.bench.allocation;
      spec.wash = assay.bench.wash;
      spec.flow = flow;
      spec.placer_seed =
          fbmb::fork_seed(config.seed, index++) & ((1ULL << 53) - 1);
      spec.body = "{" + assay.request_field + ", \"flow\": \"" +
                  fbmb::flow_preset_name(flow) +
                  "\", \"seed\": " + std::to_string(spec.placer_seed) + "}";
      jobs.push_back(std::move(spec));
    }
  }
  fbmb::Rng rng(fbmb::fork_seed(config.seed, index));
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

struct Setup {
  std::vector<Assay> assays;
  fbmb::SynthesisEngineOptions engine_options;
  std::unique_ptr<fbmb::SynthesisEngine> engine;
};

/// The inputs and the engine a run needs.
Setup build_setup(const RunConfig& config) {
  Setup setup;
  setup.assays = make_assays(config);
  setup.engine_options.threads = config.engine_threads;
  setup.engine_options.parallel_restarts = config.parallel_restarts;
  setup.engine = std::make_unique<fbmb::SynthesisEngine>(setup.engine_options);
  return setup;
}

// Set-up samples: a few at the start of a run, then one every 100 ms of
// job time after the fixed set (whose peak memory is measured), outside
// the timed jobs. A build takes 0.2 ms on paper_suite, mostly starting
// the pool's thread, and its time jitters with the host; spread over the
// run, hundreds of samples give a median as steady as the latency
// figures.
constexpr int kSetupSamplesAtStart = 5;
constexpr double kSetupSampleEveryMs = 100.0;
// Host-speed samples: one after a job whenever 10 ms of job time has
// passed since the last (every job on scale_route, about one in two on
// paper_suite), outside the timed jobs; 0.55 ms each.
constexpr double kSpeedSampleEveryMs = 10.0;

int fixed_passes(const RunConfig& config) {
  if (config.smoke) return 1;
  return config.workload == "paper_suite" ? 4 : 1;
}

/// The end-to-end run: tracing off, every chip simulated.
WorkloadResult run_untraced(const RunConfig& config) {
  WorkloadResult out;
  SetupTimer setup_timer;
  const auto build = [&config] { return build_setup(config); };
  Setup setup;
  for (int i = 0; i < kSetupSamplesAtStart; ++i) {
    setup = setup_timer.sample(build);
  }
  double next_setup_ms = 0.0;
  HostSpeed speed;
  double next_speed_ms = 0.0;
  Failures fixed;
  Failures rest;
  Quality quality;
  std::vector<double> latencies;
  double busy_ms = 0.0;
  double rss_mb = 0.0;
  bool injected = false;
  // Whole passes only: on scale_route one job takes 30 ms to 4 s, so a
  // window cut mid-pass would measure a different mix in every run.
  for (int pass = 0;
       pass < fixed_passes(config) || busy_ms < config.seconds * 1e3;
       ++pass) {
    const bool in_fixed = pass < fixed_passes(config);
    Failures& f = in_fixed ? fixed : rest;
    for (const JobSpec& spec : make_pass(config, setup.assays, pass)) {
      if (!in_fixed && busy_ms >= next_setup_ms) {
        setup_timer.sample(build);
        next_setup_ms = busy_ms + kSetupSampleEveryMs;
      }
      const fbmb::SynthesisJob job = spec.to_job();
      ++f.attempted;
      fbmb::JobOutcome outcome;
      const auto t0 = Clock::now();
      try {
        outcome = setup.engine->run_job(job);
      } catch (const std::exception&) {
        busy_ms += ms_since(t0);
        ++f.errors;
        ++f.failed;
        continue;
      }
      const double ms = ms_since(t0);
      busy_ms += ms;
      latencies.push_back(ms);
      if (busy_ms >= next_speed_ms) {
        speed.sample();
        next_speed_ms = busy_ms + kSpeedSampleEveryMs;
      }
      Verdict verdict = check_chip(job, outcome.result);
      if (config.inject_fault && !injected && verdict == Verdict::kValid &&
          outcome.result.routing.stats.fixpoints_capped == 0) {
        corrupt(job.graph, outcome.result);
        injected = true;
        verdict = check_chip(job, outcome.result);
      }
      if (!tally(verdict, f)) ++f.failed;
      if (in_fixed) quality.add(outcome.result);
    }
    // Memory after the fixed set: later passes only add cache entries,
    // and how many depends on the host's speed.
    if (pass + 1 == fixed_passes(config)) rss_mb = peak_rss_mb();
  }
  out.failures = fixed;
  out.failures += rest;
  out.correct = out.failures.errors == 0 &&
                out.failures.invalid_converged == 0;

  // Times are reported at the reference host's speed; the raw wall
  // figures and the factor go on a comment line before the result.
  const double p50 = hd_quantile(latencies, 0.50);
  const double p90 = hd_quantile(latencies, 0.90);
  const double throughput = latencies.size() / (busy_ms / 1e3);
  const double setup_s = setup_timer.median_s();
  const double factor = speed.factor();
  std::printf(
      "# raw {\"setup_s\": %.6g, \"latency_p50_ms\": %.6g, "
      "\"latency_p90_ms\": %.6g, \"throughput_per_s\": %.6g, "
      "\"reference_ms\": %.6g, \"host_factor\": %.6g, "
      "\"speed_samples\": %zu, \"jobs\": %zu}\n",
      setup_s, p50, p90, throughput, speed.median_ms(), factor,
      speed.samples(), latencies.size());
  Metrics& m = out.metrics;
  m.set("setup_s", setup_s / factor, "s");
  m.set("latency_p50_ms", p50 / factor, "ms");
  m.set("latency_p90_ms", p90 / factor, "ms");
  m.set("throughput_per_s", throughput * factor, "1/s");
  emit_quality(quality, fixed, m);
  m.set("peak_rss_mb", rss_mb, "MiB");
  return out;
}

/// The per-layer run: every job runs through the engine (untraced) and
/// then layer by layer; the two results must match bit for bit.
WorkloadResult run_traced(const RunConfig& config) {
  WorkloadResult out;
  const Setup setup = build_setup(config);
  fbmb::SynthesisEngine& engine = *setup.engine;
  fbmb::ResultCache layer_cache;
  LayerAggregate agg;
  Failures fixed;
  std::uint64_t evictions_after_fixed = 0;
  double busy_ms = 0.0;
  for (int pass = 0;
       pass < fixed_passes(config) || busy_ms < config.seconds * 1e3;
       ++pass) {
    const bool in_fixed = pass < fixed_passes(config);
    for (const JobSpec& spec : make_pass(config, setup.assays, pass)) {
      const fbmb::SynthesisJob job = spec.to_job();
      Failures& f = in_fixed ? fixed : out.failures;
      ++f.attempted;
      try {
        auto t0 = Clock::now();
        const fbmb::JobOutcome outcome = engine.run_job(job);
        const double engine_ms = ms_since(t0);
        t0 = Clock::now();
        LayeredOutcome layered =
            serve_by_layers(spec.body, &job, layer_cache,
                            setup.engine_options, engine.pool());
        busy_ms += engine_ms + ms_since(t0);

        if (config.inject_fault && agg.requests == 0) {
          corrupt(job.graph, layered.result);
          layered.result_json =
              fbmb::synthesis_result_to_json(layered.result);
        }
        const bool same =
            strip_telemetry(layered.result_json) ==
            strip_telemetry(fbmb::synthesis_result_to_json(outcome.result));
        const bool valid = tally(check_chip(job, layered.result), f);
        if (!same) ++f.mismatches;
        if (!same || !valid) ++f.failed;

        agg.add(layered.times, layered.result, in_fixed);
        agg.outside_ms += engine_ms;
        agg.untraced_ms += engine_ms;
        agg.traced_ms += layered.times.engine_wall;
        agg.outside_engine_ms += engine_ms - outcome.wall_seconds * 1e3;
        ++agg.outside_engine_samples;
      } catch (const std::exception&) {
        ++f.errors;
        ++f.failed;
      }
    }
    if (in_fixed) evictions_after_fixed = engine.cache().evictions();
  }
  out.failures += fixed;
  out.correct = out.failures.errors == 0 && out.failures.mismatches == 0 &&
                out.failures.invalid_converged == 0;

  LayerContext context = engine_context(engine);
  context.cache_evictions = evictions_after_fixed;
  emit_layer_metrics(agg, fixed, context, out.metrics);
  return out;
}

}  // namespace

WorkloadResult run_batch_workload(const RunConfig& config) {
  return config.trace ? run_traced(config) : run_untraced(config);
}

}  // namespace perfbench
