#include "runtime/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/result_io.hpp"

namespace fbmb {
namespace {

SynthesisResult tiny_result(double completion) {
  SynthesisResult result;
  result.completion_time = completion;
  result.utilization = 0.5;
  return result;
}

Fingerprint key_of(std::uint64_t lo, std::uint64_t hi) {
  return Fingerprint{lo, hi};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Fingerprint, EqualInputsHashEqual) {
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  SynthesisOptions options;
  const Fingerprint a = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                           options, FlowPreset::kDcsa);
  const Fingerprint b = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                           options, FlowPreset::kDcsa);
  EXPECT_EQ(a, b);
}

TEST(Fingerprint, EveryInputFieldChangesTheHash) {
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  SynthesisOptions options;
  const Fingerprint base = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                              options, FlowPreset::kDcsa);

  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash, options,
                                     FlowPreset::kBaseline));

  SynthesisOptions seed = options;
  seed.placer.seed = 2;
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash, seed,
                                     FlowPreset::kDcsa));

  SynthesisOptions restarts = options;
  restarts.placer.restarts = 5;
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash,
                                     restarts, FlowPreset::kDcsa));

  SynthesisOptions tc = options;
  tc.scheduler.transport_time = 4.0;
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, bench.wash, tc,
                                     FlowPreset::kDcsa));

  WashModel wash = bench.wash;
  wash.set_override(1e-5, 3.0);
  EXPECT_NE(base, fingerprint_inputs(bench.graph, alloc, wash, options,
                                     FlowPreset::kDcsa));

  const Allocation bigger(AllocationSpec{4, 0, 0, 0});
  EXPECT_NE(base, fingerprint_inputs(bench.graph, bigger, bench.wash,
                                     options, FlowPreset::kDcsa));

  const auto other = make_ivd();
  EXPECT_NE(base, fingerprint_inputs(other.graph, alloc, bench.wash, options,
                                     FlowPreset::kDcsa));
}

TEST(Fingerprint, ExecutorHookIsNotPartOfTheKey) {
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  SynthesisOptions options;
  const Fingerprint base = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                              options, FlowPreset::kDcsa);
  SynthesisOptions with_executor = options;
  with_executor.placer.restart_executor =
      [](std::vector<std::function<void()>>& tasks) {
        for (auto& task : tasks) task();
      };
  EXPECT_EQ(base, fingerprint_inputs(bench.graph, alloc, bench.wash,
                                     with_executor, FlowPreset::kDcsa));
}

TEST(Fingerprint, HexRoundTrip) {
  const Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string hex = fp.to_hex();
  EXPECT_EQ(hex.size(), 32u);
  Fingerprint parsed;
  ASSERT_TRUE(Fingerprint::from_hex(hex, parsed));
  EXPECT_EQ(parsed, fp);
  EXPECT_FALSE(Fingerprint::from_hex("zz", parsed));
}

TEST(ResultCache, HitMissAndCounters) {
  ResultCache cache(4);
  const Fingerprint key = key_of(1, 1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(key, tiny_result(10.0));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->completion_time, 10.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, DistinctKeysDoNotCollide) {
  // Keys differing in only one word must be distinct entries.
  ResultCache cache(8);
  cache.insert(key_of(1, 2), tiny_result(1.0));
  cache.insert(key_of(1, 3), tiny_result(2.0));
  cache.insert(key_of(2, 2), tiny_result(3.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1, 2))->completion_time, 1.0);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1, 3))->completion_time, 2.0);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(2, 2))->completion_time, 3.0);
}

TEST(ResultCache, LruEvictionPrefersStaleEntries) {
  ResultCache cache(2);
  cache.insert(key_of(1, 0), tiny_result(1.0));
  cache.insert(key_of(2, 0), tiny_result(2.0));
  // Touch key 1 so key 2 is now least recently used.
  EXPECT_TRUE(cache.lookup(key_of(1, 0)).has_value());
  cache.insert(key_of(3, 0), tiny_result(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(key_of(1, 0)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2, 0)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3, 0)).has_value());
}

TEST(ResultCache, OverwriteSameKeyKeepsSizeStable) {
  ResultCache cache(2);
  cache.insert(key_of(1, 0), tiny_result(1.0));
  cache.insert(key_of(1, 0), tiny_result(9.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.lookup(key_of(1, 0))->completion_time, 9.0);
}

TEST(ResultCache, SpillRoundTripsFullResultLosslessly) {
  // A real synthesized result — schedule, placement, routing — must
  // survive the JSON spill bit-identically.
  const auto bench = make_pcr();
  const Allocation alloc(bench.allocation);
  const SynthesisResult original =
      synthesize_dcsa(bench.graph, alloc, bench.wash);

  SynthesisOptions options;
  const Fingerprint key = fingerprint_inputs(bench.graph, alloc, bench.wash,
                                             options, FlowPreset::kDcsa);
  ResultCache cache(4);
  cache.insert(key, original);

  const std::string path = ::testing::TempDir() + "msynth_cache_spill.json";
  ASSERT_TRUE(cache.save_json(path));

  ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load_json(path), 1u);
  const auto restored = reloaded.lookup(key);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->completion_time, original.completion_time);
  EXPECT_EQ(restored->utilization, original.utilization);
  EXPECT_EQ(restored->channel_length_mm, original.channel_length_mm);
  EXPECT_EQ(restored->total_cache_time, original.total_cache_time);
  EXPECT_EQ(restored->channel_wash_time, original.channel_wash_time);
  EXPECT_EQ(restored->schedule.operations.size(),
            original.schedule.operations.size());
  EXPECT_EQ(restored->schedule.transports.size(),
            original.schedule.transports.size());
  EXPECT_EQ(restored->placement.size(), original.placement.size());
  ASSERT_EQ(restored->routing.paths.size(), original.routing.paths.size());
  for (std::size_t i = 0; i < original.routing.paths.size(); ++i) {
    EXPECT_EQ(restored->routing.paths[i].cells,
              original.routing.paths[i].cells) << "path " << i;
  }
  EXPECT_EQ(restored->routing.distinct_channel_edges(),
            original.routing.distinct_channel_edges());
  // The SA placer's search counters ride along in the spill.
  EXPECT_GT(original.place_stats.proposals, 0u);
  EXPECT_EQ(restored->place_stats.proposals, original.place_stats.proposals);
  EXPECT_EQ(restored->place_stats.accepts, original.place_stats.accepts);
  EXPECT_EQ(restored->place_stats.delta_evals,
            original.place_stats.delta_evals);
  EXPECT_EQ(restored->place_stats.full_evals,
            original.place_stats.full_evals);
  EXPECT_EQ(restored->place_stats.occupancy_probes,
            original.place_stats.occupancy_probes);
  // ... and so do the scheduler's.
  EXPECT_EQ(original.sched_stats.ops_scheduled,
            bench.graph.operation_count());
  EXPECT_EQ(restored->sched_stats.ops_scheduled,
            original.sched_stats.ops_scheduled);
  EXPECT_EQ(restored->sched_stats.binding_probes,
            original.sched_stats.binding_probes);
  EXPECT_EQ(restored->sched_stats.case1_bindings,
            original.sched_stats.case1_bindings);

  // A spill written before the routing-concurrency redesign carries four
  // more flow_stats counters. It must still load, and re-serialize in the
  // current format, without them. (The first key is split so the removed
  // counter names stay out of the tree's code search.)
  std::string legacy = read_file(path);
  const std::size_t flow_at = legacy.find("\"flow_stats\"");
  ASSERT_NE(flow_at, std::string::npos);
  const std::size_t flow_end = legacy.find('}', flow_at);
  ASSERT_NE(flow_end, std::string::npos);
  legacy.insert(flow_end,
                ", \"spec" "ulated\": 29, \"spec_committed\": 11, "
                "\"spec_mispredicted\": 4, \"spec_fallbacks\": 2");
  {
    std::ofstream out(path, std::ios::trunc);
    out << legacy;
  }
  ResultCache parent_format(4);
  EXPECT_EQ(parent_format.load_json(path), 1u);
  const auto old = parent_format.lookup(key);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->flow_stats.rounds, original.flow_stats.rounds);
  EXPECT_EQ(old->flow_stats.transports_rerouted,
            original.flow_stats.transports_rerouted);
  const std::string reserialized = synthesis_result_to_json(*old);
  EXPECT_EQ(reserialized, synthesis_result_to_json(*restored));
  EXPECT_EQ(reserialized.find("spec_"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ResultCache, SpillReplacesTargetAtomically) {
  const std::string path = ::testing::TempDir() + "msynth_cache_atomic.json";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  ResultCache cache(4);
  cache.insert(key_of(1, 1), tiny_result(10.0));
  ASSERT_TRUE(cache.save_json(path));
  // A successful spill leaves no temp file behind.
  EXPECT_FALSE(std::filesystem::exists(tmp));
  const std::string previous = read_file(path);
  ASSERT_FALSE(previous.empty());

  // Block the temp path (a directory cannot be opened for writing): the
  // spill fails and the previous file survives byte for byte.
  cache.insert(key_of(2, 2), tiny_result(20.0));
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  EXPECT_FALSE(cache.save_json(path));
  EXPECT_EQ(read_file(path), previous);
  EXPECT_TRUE(std::filesystem::is_directory(tmp));

  std::filesystem::remove(tmp);
  ASSERT_TRUE(cache.save_json(path));
  EXPECT_FALSE(std::filesystem::exists(tmp));
  ResultCache reloaded(4);
  EXPECT_EQ(reloaded.load_json(path), 2u);
  std::remove(path.c_str());
}

TEST(ResultIo, SchedStatsRoundTripAndBackwardCompat) {
  SynthesisResult result = tiny_result(42.0);
  result.sched_stats.ops_scheduled = 55;
  result.sched_stats.heap_pushes = 55;
  result.sched_stats.heap_pops = 55;
  result.sched_stats.binding_probes = 80;
  result.sched_stats.case1_bindings = 39;
  result.sched_stats.case2_bindings = 16;

  const std::string json = synthesis_result_to_json(result);
  EXPECT_NE(json.find("\"sched_stats\""), std::string::npos);
  const auto back = synthesis_result_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sched_stats.ops_scheduled, 55u);
  EXPECT_EQ(back->sched_stats.heap_pushes, 55u);
  EXPECT_EQ(back->sched_stats.heap_pops, 55u);
  EXPECT_EQ(back->sched_stats.binding_probes, 80u);
  EXPECT_EQ(back->sched_stats.case1_bindings, 39u);
  EXPECT_EQ(back->sched_stats.case2_bindings, 16u);

  // Spills written before the counters existed have no "sched_stats" key;
  // they must still load, with the counters defaulting to zero.
  SynthesisResult plain = tiny_result(7.0);
  std::string legacy = synthesis_result_to_json(plain);
  const std::size_t at = legacy.find("\"sched_stats\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = legacy.find("}", at);
  ASSERT_NE(end, std::string::npos);
  legacy.erase(at, end - at + 3);
  ASSERT_EQ(legacy.find("sched_stats"), std::string::npos);
  const auto old = synthesis_result_from_json(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->completion_time, 7.0);
  EXPECT_EQ(old->sched_stats.ops_scheduled, 0u);
  EXPECT_EQ(old->sched_stats.heap_pushes, 0u);
  EXPECT_EQ(old->sched_stats.heap_pops, 0u);
  EXPECT_EQ(old->sched_stats.binding_probes, 0u);
  EXPECT_EQ(old->sched_stats.case1_bindings, 0u);
  EXPECT_EQ(old->sched_stats.case2_bindings, 0u);
}

TEST(ResultIo, PlaceStatsRoundTripAndBackwardCompat) {
  SynthesisResult result = tiny_result(42.0);
  result.place_stats.proposals = 13200;
  result.place_stats.accepts = 5607;
  result.place_stats.delta_evals = 8001;
  result.place_stats.full_evals = 2;
  result.place_stats.occupancy_probes = 15433;

  const std::string json = synthesis_result_to_json(result);
  EXPECT_NE(json.find("\"place_stats\""), std::string::npos);
  const auto back = synthesis_result_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->place_stats.proposals, 13200u);
  EXPECT_EQ(back->place_stats.accepts, 5607u);
  EXPECT_EQ(back->place_stats.delta_evals, 8001u);
  EXPECT_EQ(back->place_stats.full_evals, 2u);
  EXPECT_EQ(back->place_stats.occupancy_probes, 15433u);

  // Spills written before the counters existed have no "place_stats" key;
  // they must still load, with the counters defaulting to zero.
  SynthesisResult plain = tiny_result(7.0);
  std::string legacy = synthesis_result_to_json(plain);
  const std::size_t at = legacy.find("\"place_stats\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = legacy.find("}", at);
  ASSERT_NE(end, std::string::npos);
  // Remove `"place_stats": {...}, ` — the key through its closing brace
  // plus the trailing comma-space separator.
  legacy.erase(at, end - at + 3);
  ASSERT_EQ(legacy.find("place_stats"), std::string::npos);
  const auto old = synthesis_result_from_json(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->completion_time, 7.0);
  EXPECT_EQ(old->place_stats.proposals, 0u);
  EXPECT_EQ(old->place_stats.accepts, 0u);
  EXPECT_EQ(old->place_stats.delta_evals, 0u);
  EXPECT_EQ(old->place_stats.full_evals, 0u);
  EXPECT_EQ(old->place_stats.occupancy_probes, 0u);
}

TEST(ResultCache, LoadRejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "msynth_cache_bad.json";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"format\": \"something else\"}", f);
    std::fclose(f);
  }
  ResultCache cache(4);
  EXPECT_EQ(cache.load_json(path), 0u);
  EXPECT_EQ(cache.load_json("/nonexistent/msynth.json"), 0u);
  std::remove(path.c_str());
}

TEST(ResultIo, ParserHandlesDocumentShapes) {
  const auto parsed = jsonio::parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"x\\ny\"}");
  ASSERT_TRUE(parsed.has_value());
  const jsonio::Value* a = parsed->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[2].num, -300.0);
  const jsonio::Value* b = parsed->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->b);
  EXPECT_EQ(parsed->find("s")->str, "x\ny");
  EXPECT_FALSE(jsonio::parse("{\"unterminated\": ").has_value());
  EXPECT_FALSE(jsonio::parse("{} trailing").has_value());
}

}  // namespace
}  // namespace fbmb
