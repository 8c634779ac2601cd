// Shared pieces of the msynth benchmark: run configuration, job
// descriptions, statistics, result fingerprints and the metric sink.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "biochip/component_library.hpp"
#include "biochip/wash_model.hpp"
#include "graph/sequencing_graph.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/synthesis_engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks the fixed per-run work so every workload finishes in a few
  /// seconds (used by the benchmark's own test).
  bool smoke = false;
  /// Corrupts the first returned chip the checks would accept, to prove
  /// they count it as a failure.
  bool inject_fault = false;
  std::size_t engine_threads = 1;
  /// SynthesisEngineOptions::parallel_restarts for every engine the
  /// workload builds.
  bool parallel_restarts = true;
};

/// One synthesis job of a workload, as plain inputs plus the equivalent
/// POST /synthesize body.
struct JobSpec {
  std::string name;
  fbmb::SequencingGraph graph;
  fbmb::AllocationSpec allocation;
  fbmb::WashModel wash;
  fbmb::FlowPreset flow = fbmb::FlowPreset::kDcsa;
  std::uint64_t placer_seed = 1;
  std::string body;

  fbmb::SynthesisJob to_job() const;
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Harrell-Davis estimate of the q-quantile (q in (0, 1)): a mean of every
/// order statistic, weighted by a beta density centred on rank q. A batch
/// workload's job times form one cluster per assay and preset; a single
/// order statistic jumps across the gap between two clusters when a
/// quantile falls there, this estimate moves smoothly. 0 for an empty
/// sample.
double hd_quantile(std::vector<double> values, double q);

/// The host's speed, from a fixed reference kernel (integer hashing, a
/// sort and dependent loads over 64 KiB) that uses none of the library's
/// code, timed between jobs. A shared VM runs the same code up to a
/// quarter slower for minutes at a time; the batch workloads divide their
/// job times by factor() so that this drift does not read as a change of
/// the program.
class HostSpeed {
 public:
  /// The kernel's median time on the host the bounds were tuned on
  /// (4-vCPU Xeon VM, 2.0 GHz, Release, gcc 12): factor() is 1 there.
  static constexpr double kReferenceMs = 0.55;

  /// Takes the first sample, so factor() is defined from the start.
  HostSpeed();
  /// Times the kernel once.
  void sample();
  /// Median kernel time, ms.
  double median_ms() const { return percentile(samples_, 0.5); }
  /// median_ms() / kReferenceMs: above 1 on a slower host.
  double factor() const { return median_ms() / kReferenceMs; }
  std::size_t samples() const { return samples_.size(); }

 private:
  std::vector<std::uint32_t> data_;
  std::vector<double> samples_;
};

/// The result JSON with its run-telemetry removed (cpu_seconds,
/// stage_seconds and the routing-speculation counters): two runs of the
/// same deterministic job compare equal byte for byte.
std::string strip_telemetry(std::string result_json);

/// 128-bit digest of a string (for comparing large bodies cheaply).
fbmb::Fingerprint digest(const std::string& text);

/// Mean chip quality over returned chips (the paper's Table I, Fig. 8 and
/// Fig. 9 metrics).
struct Quality {
  double completion_time_s = 0.0;
  double channel_length_mm = 0.0;
  double wash_time_s = 0.0;
  double cache_time_s = 0.0;
  std::size_t chips = 0;

  void add(const fbmb::SynthesisResult& result);
};

/// Failure accounting shared by every workload.
struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t invalid_capped = 0;     ///< simulator rejected a capped chip
  std::uint64_t invalid_converged = 0;  ///< rejected a converged chip: new
  std::uint64_t errors = 0;             ///< threw, or non-200
  std::uint64_t mismatches = 0;         ///< identity check failed

  Failures& operator+=(const Failures& o);
};

/// The simulator's verdict on a returned chip. A rejection is split by
/// the chip's own fixpoint statistics: a capped fixpoint is the known
/// cap defect, a converged one is anything new.
enum class Verdict { kValid, kInvalidCapped, kInvalidConverged };

/// Simulates a returned chip.
Verdict check_chip(const fbmb::SynthesisJob& job,
                   const fbmb::SynthesisResult& result);

/// Counts a rejection in `failures` (invalid_capped or invalid_converged;
/// the caller counts `failed`); true when the chip was accepted.
bool tally(Verdict verdict, Failures& failures);

/// Moves one operation with parents to time 0, so its inputs cannot have
/// arrived: the simulator must reject the chip.
void corrupt(const fbmb::SequencingGraph& graph,
             fbmb::SynthesisResult& result);

/// Named metrics with units, printed as the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Set-up time, sampled several times in a run; the metric is the median
/// sample. A sample's build is torn down after it is timed, so teardown
/// is not set-up time.
class SetupTimer {
 public:
  /// Times one build and returns it.
  template <typename Build>
  auto sample(Build&& build) {
    const auto t0 = Clock::now();
    auto built = build();
    samples_.push_back(ms_since(t0) / 1e3);
    return built;
  }

  /// Median sample, seconds.
  double median_s() const { return percentile(samples_, 0.5); }

 private:
  std::vector<double> samples_;
};

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

}  // namespace perfbench
