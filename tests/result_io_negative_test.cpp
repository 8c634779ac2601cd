// Negative coverage for the hardened jsonio parser and the result reader:
// these paths consume untrusted bytes (cache spill files, service request
// bodies), so every malformed input must yield nullopt — never a crash, a
// hang, or a deep exception.

#include "runtime/result_io.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesis.hpp"

namespace fbmb {
namespace {

TEST(JsonioNegative, RejectsSyntaxErrors) {
  for (const char* text : {
           "",
           "   ",
           "{",
           "}",
           "[1, 2",
           "{\"a\": }",
           "{\"a\" 1}",
           "{\"a\": 1,}",
           "[1, 2,]",
           "{\"a\": 1} trailing",
           "\"unterminated",
           "nul",
           "tru",
           "TRUE",
           "'single'",
           "{\"dup\" \"colonless\"}",
       }) {
    EXPECT_FALSE(jsonio::parse(text).has_value()) << "input: " << text;
  }
}

TEST(JsonioNegative, RejectsMalformedNumbers) {
  for (const char* text : {
           "+1",        // leading plus
           "-",         // bare sign
           "1.2.3",     // double dot
           "0x10",      // hex int
           "0x1p4",     // hex float (strtod would take it)
           "inf",       // not JSON
           "-inf",      //
           "nan",       //
           "1e",        // dangling exponent
           ".5",        // no integer part
       }) {
    EXPECT_FALSE(jsonio::parse(text).has_value()) << "input: " << text;
  }
  // Sanity: the shapes JSON does allow still parse.
  for (const char* text : {"0", "-0.5", "1e9", "2.5E-3", "1234567"}) {
    EXPECT_TRUE(jsonio::parse(text).has_value()) << "input: " << text;
  }
}

TEST(JsonioNegative, RejectsBadUnicodeEscapes) {
  for (const char* text : {
           R"("\u12")",     // too short
           R"("\u12zz")",   // non-hex
           R"("\u")",       // nothing
           R"("\x41")",     // unsupported escape
       }) {
    EXPECT_FALSE(jsonio::parse(text).has_value()) << "input: " << text;
  }
  EXPECT_TRUE(jsonio::parse(R"("Aok")").has_value());
}

TEST(JsonioNegative, DeepNestingFailsCleanlyInsteadOfOverflowing) {
  // 95 levels is within the cap; 4096 would smash the stack without it.
  const std::string shallow =
      std::string(95, '[') + "1" + std::string(95, ']');
  EXPECT_TRUE(jsonio::parse(shallow).has_value());

  const std::string deep_arrays =
      std::string(4096, '[') + "1" + std::string(4096, ']');
  EXPECT_FALSE(jsonio::parse(deep_arrays).has_value());

  std::string deep_objects;
  for (int i = 0; i < 4096; ++i) deep_objects += "{\"k\": ";
  deep_objects += "1";
  for (int i = 0; i < 4096; ++i) deep_objects += "}";
  EXPECT_FALSE(jsonio::parse(deep_objects).has_value());
}

TEST(ResultIoNegative, EveryTruncationOfAValidResultIsRejected) {
  // A real result document, chopped at every 97th byte: the reader must
  // return nullopt for each prefix (the full document still loads).
  Benchmark pcr = make_pcr();
  const SynthesisResult result =
      synthesize_dcsa(pcr.graph, Allocation(pcr.allocation), pcr.wash);
  const std::string json = synthesis_result_to_json(result);
  ASSERT_TRUE(synthesis_result_from_json(json).has_value());

  for (std::size_t cut = 0; cut + 1 < json.size(); cut += 97) {
    EXPECT_FALSE(
        synthesis_result_from_json(json.substr(0, cut)).has_value())
        << "prefix length " << cut;
  }
}

TEST(ResultIoNegative, RejectsSchemaViolations) {
  for (const char* text : {
           "{}",                                // all fields missing
           "[]",                                // not an object
           "42",                                // not an object
           R"({"completion_time": "fast"})",    // wrong type
           R"({"completion_time": 1.0})",       // rest missing
       }) {
    EXPECT_FALSE(synthesis_result_from_json(text).has_value())
        << "input: " << text;
  }
}

TEST(ResultIoNegative, OutOfRangeCounterIsRejected) {
  // A counter a uint64 cannot hold would be undefined to convert, so a
  // spill carrying one is rejected like any other schema violation.
  Benchmark pcr = make_pcr();
  const std::string json = synthesis_result_to_json(
      synthesize_dcsa(pcr.graph, Allocation(pcr.allocation), pcr.wash));
  const std::string key = "\"heap_pops\": ";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value_at = at + key.size();
  const std::size_t value_end = json.find_first_of(",}", value_at);
  ASSERT_TRUE(synthesis_result_from_json(json).has_value());
  for (const char* bad : {"-1", "-0.5", "1e30", "18446744073709551616"}) {
    std::string corrupted = json;
    corrupted.replace(value_at, value_end - value_at, bad);
    EXPECT_FALSE(synthesis_result_from_json(corrupted).has_value()) << bad;
  }
}

TEST(ResultIoNegative, CorruptedFieldInsideValidDocumentIsRejected) {
  Benchmark pcr = make_pcr();
  const SynthesisResult result =
      synthesize_dcsa(pcr.graph, Allocation(pcr.allocation), pcr.wash);
  std::string json = synthesis_result_to_json(result);

  // Turn the schedule array into a string: structurally valid JSON,
  // schema-invalid result.
  const std::size_t at = json.find("\"schedule\": ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t value_at = at + std::string("\"schedule\": ").size();
  std::string corrupted = json.substr(0, value_at) + "\"gone\"";
  // Drop everything up to the next top-level key by rebuilding the tail.
  const std::size_t tail = json.find(", \"placement\":", value_at);
  ASSERT_NE(tail, std::string::npos);
  corrupted += json.substr(tail);
  EXPECT_FALSE(synthesis_result_from_json(corrupted).has_value());
}

}  // namespace
}  // namespace fbmb
