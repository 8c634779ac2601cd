// Byte-identity goldens for every document the stats counters reach: the
// result JSON (and a spill file holding it), the Telemetry JSON, the
// engine's batch report and the service's /metrics body.
//
// Every input is fixed — a hand-built SynthesisResult, fixed counters,
// fixed histogram samples — so no wall-clock value enters and the goldens
// change only when a writer's output changes. Each counter carries a
// distinct value, so a key that swaps, drops or repeats a field shows up
// as a diff. The goldens live in tests/golden/; a deliberate format change
// updates them in the same commit.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/result_cache.hpp"
#include "runtime/result_io.hpp"
#include "runtime/synthesis_engine.hpp"
#include "runtime/telemetry.hpp"
#include "service/server.hpp"

namespace fbmb {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MSYNTH_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  // The files end in a newline for the sake of editors; the documents
  // themselves (apart from the spill) do not.
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

StageTimes fixed_stages(double scale) {
  StageTimes st;
  st.schedule = 0.1 * scale;
  st.refine = 0.0025 * scale;
  st.place = 1.5 * scale;
  st.grid_build = 0.03125 * scale;
  st.route = 2.7 * scale;
  st.retime = 0.004 * scale;
  return st;
}

RouteStats fixed_route_stats(std::uint64_t base) {
  RouteStats rs;
  rs.tasks_routed = base + 1;
  rs.nodes_expanded = base + 2;
  rs.heap_pushes = base + 3;
  rs.feasibility_rejections = base + 4;
  rs.postponement_steps = base + 5;
  rs.distance_fields_built = base + 6;
  rs.fixpoints_capped = base + 7;
  return rs;
}

FlowStats fixed_flow_stats(std::uint64_t base) {
  FlowStats fs;
  fs.rounds = base + 11;
  fs.transports_rerouted = base + 12;
  fs.transports_reused = base + 13;
  fs.cells_evicted = base + 14;
  return fs;
}

PlaceStats fixed_place_stats(std::uint64_t base) {
  PlaceStats ps;
  ps.proposals = base + 21;
  ps.accepts = base + 22;
  ps.delta_evals = base + 23;
  ps.full_evals = base + 24;
  ps.occupancy_probes = base + 25;
  return ps;
}

SchedStats fixed_sched_stats(std::uint64_t base) {
  SchedStats ss;
  ss.ops_scheduled = base + 31;
  ss.heap_pushes = base + 32;
  ss.heap_pops = base + 33;
  ss.binding_probes = base + 34;
  ss.case1_bindings = base + 35;
  ss.case2_bindings = base + 36;
  return ss;
}

/// A small but complete result: two operations, one transport, one wash,
/// two placed components, one routed path, and every counter set.
SynthesisResult fixed_result() {
  SynthesisResult r;
  ScheduledOperation a;
  a.op = OperationId{0};
  a.component = ComponentId{0};
  a.start = 0.0;
  a.end = 3.3;
  ScheduledOperation b;
  b.op = OperationId{1};
  b.component = ComponentId{1};
  b.start = 5.3;
  b.end = 9.1;
  b.in_place_parent = OperationId{0};
  r.schedule.operations = {a, b};
  TransportTask t;
  t.id = 0;
  t.producer = OperationId{0};
  t.consumer = OperationId{1};
  t.from = ComponentId{0};
  t.to = ComponentId{1};
  t.fluid = Fluid{"sample \"A\"", 1e-9};
  t.departure = 3.3;
  t.transport_time = 2.0;
  t.consume = 5.3;
  t.evicted = true;
  t.departure_deadline = 4.7;
  r.schedule.transports = {t};
  ComponentWash w;
  w.component = ComponentId{0};
  w.residue_of = OperationId{0};
  w.residue = Fluid{"sample \"A\"", 1e-9};
  w.start = 3.3;
  w.end = 3.5;
  r.schedule.component_washes = {w};
  r.schedule.completion_time = 9.1;
  r.schedule.transport_time = 2.0;

  r.placement = Placement(2);
  r.placement.at(ComponentId{0}).origin = Point{1, 2};
  r.placement.at(ComponentId{1}).origin = Point{6, 2};
  r.placement.at(ComponentId{1}).rotated = true;

  RoutedPath p;
  p.transport_id = 0;
  p.from_component = 0;
  p.to_component = 1;
  p.cells = {Point{3, 3}, Point{4, 3}, Point{5, 3}};
  p.start = 3.3;
  p.transport_end = 5.3;
  p.cache_until = 5.3;
  p.wash_duration = 0.1;
  p.delay = 0.0;
  r.routing.paths = {p};
  r.routing.delays = {0.0};
  r.routing.total_wash_time = 0.1;
  r.routing.conflict_postponements = 1;
  r.routing.stats = fixed_route_stats(100);

  r.chip.grid_width = 12;
  r.chip.grid_height = 9;
  r.stats.completion_time = 9.1;
  r.stats.utilization = 0.7;
  r.stats.total_cache_time = 0.0;
  r.stats.component_wash_time = 0.2;
  r.stats.transport_count = 1;
  r.stats.eviction_count = 1;
  r.stats.in_place_count = 1;
  r.place_stats = fixed_place_stats(200);
  r.sched_stats = fixed_sched_stats(300);
  r.flow_stats = fixed_flow_stats(400);

  r.completion_time = 9.1;
  r.utilization = 0.7;
  r.channel_length_mm = 0.6;
  r.total_cache_time = 0.0;
  r.channel_wash_time = 0.1;
  r.cpu_seconds = 4.3375;
  r.stage_seconds = fixed_stages(1.0);
  return r;
}

/// Two jobs' worth of every counter, so the aggregate is a real sum.
void record_fixed(Telemetry& telemetry) {
  for (std::uint64_t job = 0; job < 2; ++job) {
    telemetry.job_submitted();
    telemetry.job_started();
    telemetry.record_cache_miss();
    telemetry.record_stage_times(fixed_stages(1.0 + job));
    telemetry.record_route_stats(fixed_route_stats(1000 * job));
    telemetry.record_flow_stats(fixed_flow_stats(1000 * job));
    telemetry.record_place_stats(fixed_place_stats(1000 * job));
    telemetry.record_sched_stats(fixed_sched_stats(1000 * job));
    telemetry.record_synthesis_seconds(0.375);
    telemetry.job_finished();
  }
  telemetry.job_submitted();
  telemetry.record_cache_hit();
  telemetry.job_submitted();
  telemetry.job_started();
  telemetry.job_cancelled();
  telemetry.job_finished();
  telemetry.record_queue_depth(7);
  telemetry.record_queue_depth(3);
}

TEST(StatsGolden, ResultJson) {
  const std::string json = synthesis_result_to_json(fixed_result());
  EXPECT_EQ(json, read_golden("result.json"));
}

TEST(StatsGolden, ResultJsonReadsBackToTheSameBytes) {
  const std::string golden = read_golden("result.json");
  const std::optional<SynthesisResult> loaded =
      synthesis_result_from_json(golden);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(synthesis_result_to_json(*loaded), golden);
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string edited(std::string text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// The spill reader's compatibility rules, pinned on the golden result: a
/// stats object may be missing (or not an object), its keys are required
/// apart from route_stats.fixpoints_capped and stage_seconds.grid_build,
/// and unknown keys are ignored.
TEST(StatsGolden, SpillReaderCompatibilityRules) {
  const std::string golden = read_golden("result.json");

  for (const char* object :
       {"\"place_stats\": {\"proposals\": 221, \"accepts\": 222, "
        "\"delta_evals\": 223, \"full_evals\": 224, "
        "\"occupancy_probes\": 225}, ",
        "\"sched_stats\": {\"ops_scheduled\": 331, \"heap_pushes\": 332, "
        "\"heap_pops\": 333, \"binding_probes\": 334, "
        "\"case1_bindings\": 335, \"case2_bindings\": 336}, ",
        "\"flow_stats\": {\"rounds\": 411, \"transports_rerouted\": 412, "
        "\"transports_reused\": 413, \"cells_evicted\": 414}, ",
        "\"route_stats\": {\"tasks_routed\": 101, \"nodes_expanded\": 102, "
        "\"heap_pushes\": 103, \"feasibility_rejections\": 104, "
        "\"postponement_steps\": 105, \"distance_fields_built\": 106, "
        "\"fixpoints_capped\": 107}, "}) {
    const auto loaded = synthesis_result_from_json(edited(golden, object, ""));
    ASSERT_TRUE(loaded.has_value()) << object;
    EXPECT_EQ(loaded->completion_time, 9.1);
  }
  const auto no_route_stats = synthesis_result_from_json(
      edited(golden, "\"route_stats\": {", "\"old_route_stats\": {"));
  ASSERT_TRUE(no_route_stats.has_value());
  EXPECT_EQ(no_route_stats->routing.stats.tasks_routed, 0u);
  EXPECT_EQ(no_route_stats->routing.stats.fixpoints_capped, 0u);
  const auto scalar_stats = synthesis_result_from_json(edited(
      golden, "\"place_stats\": {\"proposals\": 221, \"accepts\": 222, "
              "\"delta_evals\": 223, \"full_evals\": 224, "
              "\"occupancy_probes\": 225}",
      "\"place_stats\": 5"));
  ASSERT_TRUE(scalar_stats.has_value());
  EXPECT_EQ(scalar_stats->place_stats.proposals, 0u);

  const auto no_capped = synthesis_result_from_json(
      edited(golden, ", \"fixpoints_capped\": 107", ""));
  ASSERT_TRUE(no_capped.has_value());
  EXPECT_EQ(no_capped->routing.stats.fixpoints_capped, 0u);
  EXPECT_EQ(no_capped->routing.stats.distance_fields_built, 106u);
  const auto no_grid_build = synthesis_result_from_json(
      edited(golden, ", \"grid_build\": 0.03125", ""));
  ASSERT_TRUE(no_grid_build.has_value());
  EXPECT_EQ(no_grid_build->stage_seconds.grid_build, 0.0);
  EXPECT_EQ(no_grid_build->stage_seconds.route, 2.7);

  for (const char* required :
       {", \"accepts\": 222", ", \"heap_pops\": 333",
        ", \"cells_evicted\": 414", ", \"nodes_expanded\": 102",
        ", \"retime\": 0.0040000000000000001"}) {
    EXPECT_FALSE(
        synthesis_result_from_json(edited(golden, required, "")).has_value())
        << required;
  }
  EXPECT_FALSE(synthesis_result_from_json(
                   edited(golden, "\"stage_seconds\": {", "\"stage_s\": {"))
                   .has_value());
  EXPECT_FALSE(synthesis_result_from_json(
                   edited(golden, "\"heap_pops\": 333", "\"heap_pops\": \"x\""))
                   .has_value());

  std::string unknown = golden;
  for (const char* open :
       {"\"stage_seconds\": {", "\"place_stats\": {", "\"sched_stats\": {",
        "\"flow_stats\": {", "\"route_stats\": {"}) {
    unknown = edited(unknown, open, std::string(open) + "\"later\": 1, ");
  }
  const auto with_unknown = synthesis_result_from_json(unknown);
  ASSERT_TRUE(with_unknown.has_value());
  EXPECT_EQ(synthesis_result_to_json(*with_unknown), golden);
}

TEST(StatsGolden, SpillFile) {
  ResultCache cache(4);
  SynthesisResult second = fixed_result();
  second.routing.stats = fixed_route_stats(5000);
  second.flow_stats = fixed_flow_stats(5000);
  cache.insert(Fingerprint{0x0123456789abcdefULL, 0xfedcba9876543210ULL},
               fixed_result());
  cache.insert(Fingerprint{42, 7}, second);
  const std::string path = ::testing::TempDir() + "msynth_stats_golden.json";
  ASSERT_TRUE(cache.save_json(path));
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), read_golden("spill.json") + "\n");

  // Loading the spill and writing it again reproduces it byte for byte.
  ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load_json(path), 2u);
  const std::string again = ::testing::TempDir() + "msynth_stats_golden2.json";
  ASSERT_TRUE(reloaded.save_json(again));
  std::ifstream in2(again);
  std::stringstream rewritten;
  rewritten << in2.rdbuf();
  EXPECT_EQ(rewritten.str(), written.str());
}

TEST(StatsGolden, TelemetryJson) {
  Telemetry telemetry;
  record_fixed(telemetry);
  EXPECT_EQ(Telemetry::to_json(telemetry.snapshot()),
            read_golden("telemetry.json"));
  telemetry.reset();
  EXPECT_EQ(Telemetry::to_json(telemetry.snapshot()),
            read_golden("telemetry_reset.json"));
}

TEST(StatsGolden, EngineReport) {
  SynthesisEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 16;
  options.route_threads = 2;
  SynthesisEngine engine(options);
  record_fixed(engine.telemetry());

  std::vector<JobOutcome> outcomes(2);
  outcomes[0].name = "PCR/dcsa";
  outcomes[0].result = fixed_result();
  outcomes[0].fingerprint = Fingerprint{0x0123456789abcdefULL, 1};
  outcomes[0].wall_seconds = 0.0125;
  outcomes[1].name = "job \"two\"";
  outcomes[1].result = fixed_result();
  outcomes[1].result.stage_seconds = fixed_stages(3.0);
  outcomes[1].result.routing.stats = fixed_route_stats(7000);
  outcomes[1].result.flow_stats = fixed_flow_stats(7000);
  outcomes[1].result.place_stats = fixed_place_stats(7000);
  outcomes[1].result.sched_stats = fixed_sched_stats(7000);
  outcomes[1].fingerprint = Fingerprint{2, 3};
  outcomes[1].cache_hit = true;
  EXPECT_EQ(engine.telemetry_json(outcomes), read_golden("engine_report.json"));
}

TEST(StatsGolden, MetricsBody) {
  service::ServerOptions options;
  options.engine.threads = 1;
  options.engine.route_threads = 3;
  service::SynthServer server(options);  // never started: no socket
  service::ServiceMetrics& m = server.metrics();
  m.connections_accepted = 9;
  m.connections_rejected = 1;
  m.requests_received = 12;
  m.requests_in_flight = 2;
  m.responses_ok = 6;
  m.responses_bad_request = 1;
  m.responses_rejected = 2;
  for (double s : {0.00005, 0.002, 0.0031, 0.04, 0.9}) {
    m.synthesize_latency.record(s);
  }
  m.healthz_latency.record(0.00002);
  m.metrics_latency.record(0.0004);
  m.metrics_latency.record(0.0007);
  record_fixed(server.engine().telemetry());
  EXPECT_EQ(server.metrics_json(), read_golden("metrics.json"));
}

}  // namespace
}  // namespace fbmb
