#include "runtime/telemetry.hpp"

#include <cstdio>
#include <sstream>

namespace fbmb {

namespace {

std::string number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Telemetry::record_queue_depth(std::uint64_t depth) {
  std::uint64_t current = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > current &&
         !max_queue_depth_.compare_exchange_weak(current, depth)) {
  }
}

Telemetry::Snapshot Telemetry::snapshot() const {
  Snapshot s;
  s.stage_seconds = stages_.load();
  s.synthesis_seconds = synthesis_seconds_.load();
  s.cache_hits = cache_hits_.load();
  s.cache_misses = cache_misses_.load();
  s.jobs_submitted = jobs_submitted_.load();
  s.jobs_completed = jobs_completed_.load();
  s.jobs_cancelled = jobs_cancelled_.load();
  s.jobs_in_flight = jobs_in_flight_.load();
  s.max_queue_depth = max_queue_depth_.load();
  s.routing = routing_.load();
  s.flow = flow_.load();
  s.placement = placement_.load();
  s.scheduling = scheduling_.load();
  return s;
}

void Telemetry::reset() {
  stages_.reset();
  routing_.reset();
  flow_.reset();
  placement_.reset();
  scheduling_.reset();
  synthesis_seconds_.store(0.0);
  cache_hits_.store(0);
  cache_misses_.store(0);
  jobs_submitted_.store(0);
  jobs_completed_.store(0);
  jobs_cancelled_.store(0);
  jobs_in_flight_.store(0);
  max_queue_depth_.store(0);
}

std::string Telemetry::to_json(const Snapshot& s) {
  std::ostringstream os;
  os << "{\"stages\": {";
  write_field_members(os, s.stage_seconds, number);
  os << ", \"total\": " << number(s.stage_seconds.total())
     << "}, \"cache\": {\"hits\": " << s.cache_hits
     << ", \"misses\": " << s.cache_misses
     << "}, \"jobs\": {\"submitted\": " << s.jobs_submitted
     << ", \"completed\": " << s.jobs_completed
     << ", \"cancelled\": " << s.jobs_cancelled
     << ", \"in_flight\": " << s.jobs_in_flight << "}, \"routing\": ";
  write_fields(os, s.routing);
  os << ", \"flow\": ";
  write_fields(os, s.flow);
  os << ", \"placement\": ";
  write_fields(os, s.placement);
  os << ", \"scheduling\": ";
  write_fields(os, s.scheduling);
  os << ", \"max_queue_depth\": " << s.max_queue_depth
     << ", \"synthesis_seconds\": " << number(s.synthesis_seconds) << "}";
  return os.str();
}

}  // namespace fbmb
