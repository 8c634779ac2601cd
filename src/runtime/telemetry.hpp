// Per-stage telemetry for the concurrent synthesis runtime.
//
// Telemetry aggregates, across every job an engine executes: wall time per
// synthesis stage (schedule / refine / place / route / retime), result-cache
// hits and misses, jobs submitted / completed / in flight, and the work
// queue's high-water depth. Counters are atomic so job workers record
// concurrently without locking; snapshot() reads a consistent-enough view
// for reporting (individual counters are exact; cross-counter skew is
// bounded by whatever is still in flight).
//
// The per-struct counters (StageTimes and the route, flow, place and
// scheduler stats) are held as AtomicFields generated from each struct's
// field list (util/stats_fields.hpp), so a counter added to a list is
// recorded, snapshotted, reset and reported with no edit here.
//
// ScopedStageTimer is the lightweight span primitive: it measures the
// lifetime of a scope and adds it to a double, e.g. a StageTimes field.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>

#include "core/synthesis.hpp"
#include "route/types.hpp"

namespace fbmb {

/// Adds the scope's wall time to `sink` on destruction.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(double& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedStageTimer() {
    sink_ += std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  double& sink_;
  std::chrono::steady_clock::time_point start_;
};

/// sink += value. fetch_add on atomic<double> is C++20; a CAS loop keeps
/// the TU building with libstdc++ configurations that lack the FP overload.
template <class T>
void atomic_add(std::atomic<T>& sink, T value) {
  if constexpr (std::is_floating_point_v<T>) {
    T current = sink.load(std::memory_order_relaxed);
    while (!sink.compare_exchange_weak(current, current + value)) {
    }
  } else {
    sink.fetch_add(value);
  }
}

/// One atomic per listed field of the stats struct S, in list order.
template <class S>
class AtomicFields {
 public:
  /// Folds `stats` into the aggregate.
  void add(const S& stats) {
    std::size_t i = 0;
    S::for_each_field([&](const char*, auto member) {
      atomic_add(cells_[i++], stats.*member);
    });
  }

  S load() const {
    S stats;
    std::size_t i = 0;
    S::for_each_field(
        [&](const char*, auto member) { stats.*member = cells_[i++].load(); });
    return stats;
  }

  void reset() {
    for (auto& cell : cells_) cell.store(0);
  }

 private:
  std::array<std::atomic<typename S::value_type>, field_count<S>()> cells_{};
};

class Telemetry {
 public:
  /// Immutable view of all counters at one instant.
  struct Snapshot {
    StageTimes stage_seconds;       ///< summed over all completed jobs
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_cancelled = 0;  ///< finished via SynthesisCancelled
    std::uint64_t jobs_in_flight = 0;
    std::uint64_t max_queue_depth = 0;
    double synthesis_seconds = 0.0;  ///< summed job wall time (cache misses)
    RouteStats routing;              ///< summed router counters (cache misses)
    /// Summed route–retime fixpoint reuse counters (cache
    /// misses). Only the aggregate counters are tracked; per-round details
    /// stay per-job.
    FlowStats flow;
    PlaceStats placement;            ///< summed placer counters (cache misses)
    SchedStats scheduling;           ///< summed scheduler counters (cache misses)
  };

  void record_cache_hit() { cache_hits_.fetch_add(1); }
  void record_cache_miss() { cache_misses_.fetch_add(1); }

  void job_submitted() { jobs_submitted_.fetch_add(1); }
  void job_started() { jobs_in_flight_.fetch_add(1); }
  /// A job that stopped with SynthesisCancelled (deadline / drain /
  /// client disconnect) — counted in addition to job_finished().
  void job_cancelled() { jobs_cancelled_.fetch_add(1); }
  void job_finished() {
    jobs_in_flight_.fetch_sub(1);
    jobs_completed_.fetch_add(1);
  }

  /// Fold one completed job's stage breakdown or search counters into the
  /// aggregate. FlowStats contributes only its listed counters; per-round
  /// details stay per-job.
  void record_stage_times(const StageTimes& stages) { stages_.add(stages); }
  void record_route_stats(const RouteStats& stats) { routing_.add(stats); }
  void record_flow_stats(const FlowStats& stats) { flow_.add(stats); }
  void record_place_stats(const PlaceStats& stats) { placement_.add(stats); }
  void record_sched_stats(const SchedStats& stats) { scheduling_.add(stats); }

  void record_synthesis_seconds(double seconds) {
    atomic_add(synthesis_seconds_, seconds);
  }

  void record_queue_depth(std::uint64_t depth);

  Snapshot snapshot() const;

  /// Resets every counter to zero (e.g. between batch passes).
  void reset();

  /// The snapshot as a JSON object (schema documented in docs/RUNTIME.md).
  static std::string to_json(const Snapshot& snapshot);

 private:
  AtomicFields<StageTimes> stages_;
  AtomicFields<RouteStats> routing_;
  AtomicFields<FlowStats> flow_;
  AtomicFields<PlaceStats> placement_;
  AtomicFields<SchedStats> scheduling_;
  std::atomic<double> synthesis_seconds_{0.0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
  std::atomic<std::uint64_t> jobs_in_flight_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
};

}  // namespace fbmb
