// The msynth benchmark program.
//
//   perfbench --workload paper_suite|scale_route|service_mix --seed N
//             --seconds S --trace 0|1 [--smoke] [--inject-fault]
//             [--commit SHA]
//
// Prints a "# host" line with the host and build, then, as the last line
// of standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (perfbench/README.md lists both). Refuses to
// measure a Debug or sanitizer build.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "report/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload paper_suite|scale_route|"
               "service_mix --seed N --seconds S --trace 0|1 [--smoke] "
               "[--inject-fault] [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--inject-fault") {
      config.inject_fault = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const bool batch = config.workload == "paper_suite" ||
                     config.workload == "scale_route";
  if (!batch && config.workload != "service_mix") {
    return usage("unknown workload");
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");
  if (!kOptimized || kSanitized) {
    std::cerr << "perfbench: refusing to measure a "
              << (kSanitized ? "sanitizer" : "Debug") << " build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // The batch workloads run each job on the caller's thread alone: SA
  // restarts stay serial and the engine's one pool thread idles. A job's
  // time is then its own work, which HostSpeed's scaling corrects for the
  // host's speed; restarts spread over the pool also waited for other
  // CPUs, and that wait doubled in some runs, on no schedule a reference
  // kernel could follow. service_mix keeps parallel restarts on a pool of
  // up to four threads shared by its connections.
  config.engine_threads = batch ? 1 : std::min<std::size_t>(nproc, 4);
  config.parallel_restarts = !batch;
  std::cout << "# host {\"nproc\": " << nproc
            << ", \"engine_threads\": " << config.engine_threads
            << ", \"parallel_restarts\": "
            << (config.parallel_restarts ? "true" : "false")
            << ", \"cache_capacity\": "
            << fbmb::SynthesisEngineOptions{}.cache_capacity
            << ", \"compiler\": " << fbmb::json_quote(kCompiler)
            << ", \"build_type\": " << fbmb::json_quote(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << fbmb::json_quote(commit)
            << ", \"workload\": " << fbmb::json_quote(config.workload)
            << ", \"seed\": " << config.seed << "}" << std::endl;

  perfbench::WorkloadResult result;
  try {
    result = batch ? perfbench::run_batch_workload(config)
                   : perfbench::run_service_mix(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  const perfbench::Failures& f = result.failures;
  std::cerr << "perfbench: attempted " << f.attempted << ", failed "
            << f.failed << " (errors " << f.errors << ", mismatches "
            << f.mismatches << ", invalid capped " << f.invalid_capped
            << ", invalid converged " << f.invalid_converged << ")\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << f.attempted
            << ", \"failed\": " << f.failed
            << ", \"metrics\": " << result.metrics.to_json() << "}"
            << std::endl;
  return 0;
}
