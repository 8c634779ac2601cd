#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "report/json.hpp"
#include "sim/chip_simulator.hpp"

namespace perfbench {

fbmb::SynthesisJob JobSpec::to_job() const {
  fbmb::SynthesisJob job;
  job.name = name;
  job.graph = graph;
  job.allocation = fbmb::Allocation(allocation);
  job.wash = wash;
  job.flow = flow;
  job.options.placer.seed = placer_seed;
  return job;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < 1e-14) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double beta_cdf(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double hd_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = beta_cdf(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

HostSpeed::HostSpeed() : data_(1 << 14) { sample(); }

void HostSpeed::sample() {
  const auto t0 = Clock::now();
  std::uint32_t x = 2463534242u;
  for (std::uint32_t& v : data_) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = x;
  }
  std::sort(data_.begin(), data_.begin() + 4096);
  std::uint64_t sum = 0;
  std::uint32_t at = 1;
  for (std::uint32_t k = 0; k < 30000; ++k) {
    at = data_[(at * 2654435761u) & (data_.size() - 1)] ^ k;
    sum += at;
  }
  // Keeps the loads from being optimized away.
  asm volatile("" : : "r"(sum) : "memory");
  samples_.push_back(ms_since(t0));
}

std::string strip_telemetry(std::string json) {
  for (std::size_t at = json.find(", \"cpu_seconds\":");
       at != std::string::npos;
       at = json.find(", \"cpu_seconds\":", at + 1)) {
    const std::size_t end = json.find(", \"stats\"", at);
    if (end == std::string::npos) break;
    json.erase(at, end - at);
  }
  for (std::size_t at = json.find(", \"speculated\":");
       at != std::string::npos;
       at = json.find(", \"speculated\":", at + 1)) {
    const std::size_t end = json.find('}', at);
    if (end == std::string::npos) break;
    json.erase(at, end - at);
  }
  return json;
}

fbmb::Fingerprint digest(const std::string& text) {
  fbmb::InputHasher hasher;
  hasher.str(text);
  return hasher.digest();
}

void Quality::add(const fbmb::SynthesisResult& result) {
  completion_time_s += result.completion_time;
  channel_length_mm += result.channel_length_mm;
  wash_time_s += result.channel_wash_time;
  cache_time_s += result.total_cache_time;
  ++chips;
}

Failures& Failures::operator+=(const Failures& o) {
  attempted += o.attempted;
  failed += o.failed;
  invalid_capped += o.invalid_capped;
  invalid_converged += o.invalid_converged;
  errors += o.errors;
  mismatches += o.mismatches;
  return *this;
}

Verdict check_chip(const fbmb::SynthesisJob& job,
                   const fbmb::SynthesisResult& result) {
  if (fbmb::simulate_chip(job.graph, job.allocation, job.wash, result).ok) {
    return Verdict::kValid;
  }
  return result.routing.stats.fixpoints_capped > 0
             ? Verdict::kInvalidCapped
             : Verdict::kInvalidConverged;
}

bool tally(Verdict verdict, Failures& failures) {
  if (verdict == Verdict::kInvalidCapped) ++failures.invalid_capped;
  if (verdict == Verdict::kInvalidConverged) ++failures.invalid_converged;
  return verdict == Verdict::kValid;
}

void corrupt(const fbmb::SequencingGraph& graph,
             fbmb::SynthesisResult& result) {
  for (fbmb::ScheduledOperation& op : result.schedule.operations) {
    if (!graph.parents(op.op).empty()) {
      op.end -= op.start;
      op.start = 0.0;
      return;
    }
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::to_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", entry.first);
    os << (first ? "" : ", ") << fbmb::json_quote(name)
       << ": {\"value\": " << number
       << ", \"unit\": " << fbmb::json_quote(entry.second) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // does not: Linux carries it across exec, so it would report the
  // launching process's peak (run.py's Python) when that is larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
