// service_mix: an in-process SynthServer on loopback, driven by an open
// loop. Requests are due on a fixed schedule (constant rate) and are sent
// from at most engine_threads keep-alive connections; each latency is
// timed from when the request was due. Keys (assay, preset, seed) are
// drawn with Zipf popularity from more keys than the cache holds, so
// hits, misses, inserts and LRU evictions all happen.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "report/json.hpp"
#include "runtime/result_io.hpp"
#include "service/http.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kRequestsPerSecond = 200.0;
constexpr int kSeedSlots = 24;      // keys = 8 assays x 2 presets x 24
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kReplayRequests = 600;
constexpr std::size_t kMinRequests = 1000;  // ten samples beyond p99
// A resident server fills its cache once, not per request stream: the
// first requests warm it and are checked but not timed.
constexpr std::size_t kWarmupRequests = 1000;

/// The request schedule: the body of every key and the key of every
/// request, in due order; latency is timed from request `warmup` on.
struct Mix {
  std::vector<std::string> bodies;
  std::vector<std::uint32_t> requests;
  std::size_t warmup = 0;
};

Mix make_mix(const RunConfig& config, std::size_t count) {
  std::vector<std::string> names;
  for (const fbmb::Benchmark& bench : fbmb::paper_benchmarks()) {
    names.push_back(bench.name);
  }
  names.push_back("PaperExample");
  Mix mix;
  for (int slot = 0; slot < kSeedSlots; ++slot) {
    const std::uint64_t seed =
        fbmb::fork_seed(config.seed, (1u << 20) + slot) & ((1ULL << 53) - 1);
    for (const std::string& name : names) {
      for (const char* flow : {"dcsa", "baseline"}) {
        mix.bodies.push_back("{\"benchmark\": " + fbmb::json_quote(name) +
                             ", \"flow\": \"" + flow +
                             "\", \"seed\": " + std::to_string(seed) + "}");
      }
    }
  }
  // Rank r has weight 1 / (r + 1)^s. Ranks cycle through the assays,
  // then the presets, then the seed slots, so every assay and preset is
  // equally represented among the hot keys at any seed.
  const std::size_t assays = names.size();
  std::vector<std::uint32_t> by_rank;
  for (std::size_t r = 0; r < mix.bodies.size(); ++r) {
    const std::size_t assay = r % assays;
    const std::size_t flow = (r / assays) % 2;
    const std::size_t slot = r / (2 * assays);
    by_rank.push_back(
        static_cast<std::uint32_t>((slot * assays + assay) * 2 + flow));
  }
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t r = 0; r < by_rank.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf.push_back(total);
  }
  fbmb::Rng rng(fbmb::fork_seed(config.seed, 0x5E4F1CE));
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform() * total;
    const std::size_t rank =
        std::min<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin(),
                              cdf.size() - 1);
    mix.requests.push_back(by_rank[rank]);
  }
  return mix;
}

/// One request's outcome as the client saw it.
struct Reply {
  int status = 0;           ///< 0: transport failure
  double latency_ms = 0.0;  ///< from due time to the full response
  double late_ms = 0.0;     ///< how late the request was sent
  double engine_ms = 0.0;   ///< the response's wall_seconds
  fbmb::Fingerprint result_digest;  ///< of the stripped result object
};

/// A keep-alive HTTP/1.1 client connection that reconnects on demand.
class Client {
 public:
  explicit Client(std::uint16_t port) : port_(port) {}

  /// POSTs `body` to /synthesize; returns the status (0 on transport
  /// failure) and fills `response_body`.
  int post(const std::string& body, std::string& response_body) {
    if (!conn_) conn_ = fbmb::service::connect_to("127.0.0.1", port_, 5000);
    if (!conn_) return 0;
    const std::string wire =
        "POST /synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    if (!conn_->send_all(wire, 10000)) return drop();
    fbmb::service::HttpLimits limits;
    limits.max_body = 64u << 20;
    fbmb::service::HttpResponseParser parser(limits);
    char buffer[65536];
    while (parser.status() == fbmb::service::ParseStatus::kNeedMore) {
      std::size_t received = 0;
      const fbmb::service::IoStatus io =
          conn_->read_some(buffer, sizeof(buffer), 60000, received);
      if (io != fbmb::service::IoStatus::kOk) return drop();
      parser.feed(buffer, received);
    }
    if (parser.status() != fbmb::service::ParseStatus::kDone) return drop();
    const fbmb::service::HttpResponseMessage& message = parser.message();
    const std::string* connection = message.header("Connection");
    if (connection != nullptr && *connection == "close") conn_.reset();
    response_body = message.body;
    return message.status;
  }

 private:
  int drop() {
    conn_.reset();
    return 0;
  }

  std::uint16_t port_;
  std::optional<fbmb::service::Socket> conn_;
};

/// The "result" object of a 200 body, telemetry stripped, as a digest;
/// also reads the response's wall_seconds.
void read_response(const std::string& body, Reply& reply) {
  const std::size_t wall = body.find("\"wall_seconds\": ");
  if (wall != std::string::npos) {
    reply.engine_ms = std::strtod(body.c_str() + wall + 16, nullptr) * 1e3;
  }
  const std::size_t result = body.find("\"result\": ");
  if (result == std::string::npos || body.size() < result + 11) return;
  reply.result_digest = digest(strip_telemetry(
      body.substr(result + 10, body.size() - (result + 10) - 1)));
}

/// Sends every request of `mix` on schedule from `clients` connections.
std::vector<Reply> drive_load(std::uint16_t port, const Mix& mix,
                              std::size_t clients, double& wall_s) {
  std::vector<Reply> replies(mix.requests.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [start](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(i) * 1e9 / kRequestsPerSecond));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Client client(port);
      std::string response;
      for (std::size_t i = next++; i < replies.size(); i = next++) {
        const auto due_at = due(i);
        std::this_thread::sleep_until(due_at);
        Reply& reply = replies[i];
        const auto sent = Clock::now();
        reply.late_ms =
            std::chrono::duration<double, std::milli>(sent - due_at).count();
        try {
          reply.status = client.post(mix.bodies[mix.requests[i]], response);
          reply.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - due_at)
                  .count();
          if (reply.status == 200) read_response(response, reply);
        } catch (const std::exception&) {
          reply.status = 0;  // counted as a transport failure
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return replies;
}

struct Setup {
  Mix mix;
  std::unique_ptr<fbmb::service::SynthServer> server;
};

/// The request schedule and a started server.
Setup build_setup(const RunConfig& config) {
  const std::size_t warmup = config.smoke ? 0 : kWarmupRequests;
  const std::size_t count =
      warmup + std::max<std::size_t>(
                   config.smoke ? 1 : kMinRequests,
                   static_cast<std::size_t>(config.seconds *
                                            kRequestsPerSecond));
  Setup setup;
  setup.mix = make_mix(config, count);
  setup.mix.warmup = warmup;
  fbmb::service::ServerOptions options;
  options.engine.threads = config.engine_threads;
  options.engine.parallel_restarts = config.parallel_restarts;
  setup.server = std::make_unique<fbmb::service::SynthServer>(options);
  setup.server->start();
  return setup;
}

fbmb::SynthesisJob parse_job(const std::string& body) {
  std::string error;
  std::optional<fbmb::service::SynthesizeRequest> request =
      fbmb::service::parse_synthesize_request(body, error);
  if (!request) throw std::runtime_error("bad request body: " + error);
  return std::move(request->job);
}

/// A direct run_job result per key: its stripped-JSON digest and the
/// simulator's verdict.
struct Direct {
  fbmb::Fingerprint digest;
  Verdict verdict;
  fbmb::SynthesisResult quality;  ///< metrics only (schedule dropped)
};

/// Runs every key that was answered 200 directly through a fresh engine,
/// in chunks to bound memory.
std::map<std::uint32_t, Direct> run_direct(const RunConfig& config,
                                           const Mix& mix,
                                           const std::vector<Reply>& replies) {
  std::vector<std::uint32_t> keys;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].status == 200) keys.push_back(mix.requests[i]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  fbmb::SynthesisEngineOptions options;
  options.threads = config.engine_threads;
  options.parallel_restarts = config.parallel_restarts;
  fbmb::SynthesisEngine engine(options);
  std::map<std::uint32_t, Direct> direct;
  constexpr std::size_t kChunk = 32;
  for (std::size_t at = 0; at < keys.size(); at += kChunk) {
    std::vector<fbmb::SynthesisJob> jobs;
    for (std::size_t k = at; k < std::min(keys.size(), at + kChunk); ++k) {
      jobs.push_back(parse_job(mix.bodies[keys[k]]));
    }
    const std::vector<fbmb::JobOutcome> outcomes = engine.run_batch(jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const fbmb::SynthesisResult& result = outcomes[j].result;
      Direct& d = direct[keys[at + j]];
      d.digest =
          digest(strip_telemetry(fbmb::synthesis_result_to_json(result)));
      d.verdict = check_chip(jobs[j], result);
      d.quality.completion_time = result.completion_time;
      d.quality.channel_length_mm = result.channel_length_mm;
      d.quality.channel_wash_time = result.channel_wash_time;
      d.quality.total_cache_time = result.total_cache_time;
    }
  }
  return direct;
}

WorkloadResult run_untraced(const RunConfig& config) {
  WorkloadResult out;
  SetupTimer setup_timer;
  Setup setup;
  for (int i = 0; i < (config.smoke ? 3 : 15); ++i) {
    setup = setup_timer.sample([&config] { return build_setup(config); });
  }
  out.metrics.set("setup_s", setup_timer.median_s(), "s");
  double wall_s = 0.0;
  std::vector<Reply> replies =
      drive_load(setup.server->port(), setup.mix, config.engine_threads,
                 wall_s);
  // Peak memory of serving, before verification allocates anything.
  const double rss_mb = peak_rss_mb();
  setup.server->shutdown();
  if (config.inject_fault && !replies.empty()) {
    replies.front().result_digest.lo ^= 1;
  }

  const std::map<std::uint32_t, Direct> direct =
      run_direct(config, setup.mix, replies);
  Failures& f = out.failures;
  std::vector<double> latencies;
  std::size_t timed_ok = 0;
  std::vector<std::uint32_t> served_keys;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& reply = replies[i];
    ++f.attempted;
    if (i >= setup.mix.warmup) latencies.push_back(reply.latency_ms);
    if (reply.status != 200) {
      ++f.errors;
      ++f.failed;
      continue;
    }
    const Direct& d = direct.at(setup.mix.requests[i]);
    if (!(reply.result_digest == d.digest)) {
      ++f.mismatches;
      ++f.failed;
      continue;
    }
    if (!tally(d.verdict, f)) {
      ++f.failed;
      continue;
    }
    timed_ok += i >= setup.mix.warmup;
    served_keys.push_back(setup.mix.requests[i]);
  }
  // Quality is a mean over distinct served chips: popularity decides how
  // often a chip is served, not how good the chips are.
  std::sort(served_keys.begin(), served_keys.end());
  served_keys.erase(std::unique(served_keys.begin(), served_keys.end()),
                    served_keys.end());
  Quality quality;
  for (std::uint32_t key : served_keys) quality.add(direct.at(key).quality);
  out.correct = f.errors == 0 && f.mismatches == 0 &&
                f.invalid_converged == 0;

  Metrics& m = out.metrics;
  m.set("latency_p50_ms", percentile(latencies, 0.50), "ms");
  m.set("latency_p90_ms", percentile(latencies, 0.90), "ms");
  m.set("latency_p99_ms", percentile(latencies, 0.99), "ms");
  const double timed_s = wall_s - setup.mix.warmup / kRequestsPerSecond;
  m.set("throughput_per_s", static_cast<double>(timed_ok) / timed_s, "1/s");
  emit_quality(quality, f, m);
  m.set("peak_rss_mb", rss_mb, "MiB");
  return out;
}

/// The per-layer run: the same load (for the server-side numbers), then
/// the first requests replayed in-process, each through parse +
/// run_job + synthesize_body (untraced) and through the layers (traced).
/// Layered, direct and served results must all match.
WorkloadResult run_traced(const RunConfig& config) {
  WorkloadResult out;
  Setup setup = build_setup(config);
  double wall_s = 0.0;
  const std::vector<Reply> replies =
      drive_load(setup.server->port(), setup.mix, config.engine_threads,
                 wall_s);
  setup.server->shutdown();

  LayerContext context = engine_context(setup.server->engine());
  std::vector<double> late;
  std::size_t rejected = 0;
  LayerAggregate agg;
  agg.request_path = true;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& reply = replies[i];
    if (reply.status != 200) {
      ++out.failures.errors;
      ++out.failures.failed;
    }
    if (i < setup.mix.warmup) continue;
    late.push_back(reply.late_ms);
    rejected += reply.status == 429;
    if (reply.status == 200) {
      agg.outside_engine_ms +=
          reply.latency_ms - reply.late_ms - reply.engine_ms;
      ++agg.outside_engine_samples;
    }
  }
  context.late_ms_p99 = percentile(late, 0.99);
  context.status_429_frac =
      late.empty() ? 0.0 : static_cast<double>(rejected) / late.size();

  fbmb::SynthesisEngineOptions options;
  options.threads = config.engine_threads;
  options.parallel_restarts = config.parallel_restarts;
  fbmb::SynthesisEngine engine(options);
  fbmb::ResultCache layer_cache;
  Failures fixed;
  std::map<std::uint32_t, Verdict> verdicts;
  const std::size_t replay = std::min(
      replies.size(), config.smoke ? std::size_t{100} : kReplayRequests);
  for (std::size_t i = 0; i < replay; ++i) {
    const std::uint32_t key = setup.mix.requests[i];
    const std::string& body = setup.mix.bodies[key];
    ++fixed.attempted;
    try {
      // Untraced: what the server does for this body, minus the socket.
      auto t0 = Clock::now();
      const fbmb::JobOutcome outcome = engine.run_job(parse_job(body));
      const std::string response = fbmb::service::synthesize_body(outcome);
      const double engine_ms = ms_since(t0);
      t0 = Clock::now();
      LayeredOutcome layered =
          serve_by_layers(body, nullptr, layer_cache, options, engine.pool());
      const double layered_ms = ms_since(t0);

      const fbmb::SynthesisJob job = parse_job(body);
      if (config.inject_fault && i == 0) {
        corrupt(job.graph, layered.result);
        layered.result_json = fbmb::synthesis_result_to_json(layered.result);
      }
      const std::string stripped = strip_telemetry(layered.result_json);
      bool same = stripped == strip_telemetry(fbmb::synthesis_result_to_json(
                                  outcome.result));
      if (replies[i].status == 200) {
        same = same && digest(stripped) == replies[i].result_digest;
      }
      // Each distinct chip is simulated once; later hits reuse the verdict.
      const auto [known, fresh] = verdicts.try_emplace(key);
      if (fresh) known->second = check_chip(job, layered.result);
      const bool valid = tally(known->second, fixed);
      if (!same) ++fixed.mismatches;
      // A request the server failed was counted by the load phase.
      if (replies[i].status == 200 && (!same || !valid)) {
        ++fixed.failed;
      }

      agg.add(layered.times, layered.result, /*fixed=*/true);
      agg.outside_ms += replies[i].latency_ms;
      agg.untraced_ms += engine_ms;
      agg.traced_ms += layered_ms;
    } catch (const std::exception&) {
      ++fixed.errors;
      ++fixed.failed;
    }
  }
  // Replayed requests are re-runs of load requests, not new attempts.
  fixed.attempted = 0;
  out.failures.attempted = replies.size();
  out.failures += fixed;
  out.correct = out.failures.errors == 0 && out.failures.mismatches == 0 &&
                out.failures.invalid_converged == 0;
  emit_layer_metrics(agg, fixed, context, out.metrics);
  return out;
}

}  // namespace

WorkloadResult run_service_mix(const RunConfig& config) {
  return config.trace ? run_traced(config) : run_untraced(config);
}

}  // namespace perfbench
