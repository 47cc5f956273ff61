// The measurement side of the calibration loop: the JSONL observation log
// must round-trip losslessly, tolerate corrupt/truncated lines (skip and
// count, never crash), and serialize concurrent appends so parallel bench
// workers interleave whole lines, never bytes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "common/parallel_for.h"
#include "cost/observation_log.h"

namespace amalur {
namespace cost {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

Observation SampleObservation() {
  Observation o;
  o.scenario = "inner_join";
  o.training_iterations = 20.0;
  o.rhs_cols = 1.0;
  o.compute_cells = 900000.0;
  o.expansion_rows = 40000.0;
  o.target_cells = 900000.0;
  o.factorized_seconds = 0.0805518509;
  o.materialized_seconds = 0.0681047850;
  return o;
}

TEST(ObservationTest, JsonRoundTripIsLossless) {
  // Values chosen to have no short decimal representation: %.17g must
  // reproduce every bit through an append -> parse cycle.
  Observation o;
  o.scenario = "awkward_doubles";
  o.training_iterations = 1.0 / 3.0;
  o.rhs_cols = 0.1 + 0.2;
  o.compute_cells = 12345.678901234567;
  o.expansion_rows = 2.2250738585072014e-308;  // smallest normal double
  o.target_cells = 9.8765432109876543e12;
  o.factorized_seconds = 0.041045700999999997;
  o.materialized_seconds = 1e-12;

  auto parsed = Observation::FromJsonLine(o.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->scenario, o.scenario);
  EXPECT_EQ(parsed->training_iterations, o.training_iterations);
  EXPECT_EQ(parsed->rhs_cols, o.rhs_cols);
  EXPECT_EQ(parsed->compute_cells, o.compute_cells);
  EXPECT_EQ(parsed->expansion_rows, o.expansion_rows);
  EXPECT_EQ(parsed->target_cells, o.target_cells);
  EXPECT_EQ(parsed->factorized_seconds, o.factorized_seconds);
  EXPECT_EQ(parsed->materialized_seconds, o.materialized_seconds);
}

TEST(ObservationTest, FromFeaturesAggregatesTheRegressors) {
  CostFeatures features;
  features.target_rows = 30;
  features.target_cols = 4;
  SourceFeatures s0;
  s0.compute_cells = 100;
  s0.null_ratio = 0.5;
  s0.contributed_rows = 10;
  SourceFeatures s1;
  s1.compute_cells = 200;
  s1.null_ratio = 0.0;
  s1.contributed_rows = 20;
  features.sources = {s0, s1};

  const Observation o =
      Observation::FromFeatures(features, 20.0, 0.5, 0.7, "agg", 2.0);
  EXPECT_EQ(o.scenario, "agg");
  EXPECT_DOUBLE_EQ(o.training_iterations, 20.0);
  EXPECT_DOUBLE_EQ(o.rhs_cols, 2.0);
  EXPECT_DOUBLE_EQ(o.compute_cells, 100.0 * 0.5 + 200.0);
  EXPECT_DOUBLE_EQ(o.expansion_rows, 30.0);
  EXPECT_DOUBLE_EQ(o.target_cells, 120.0);
  EXPECT_DOUBLE_EQ(o.factorized_seconds, 0.5);
  EXPECT_DOUBLE_EQ(o.materialized_seconds, 0.7);
}

TEST(ObservationTest, RejectsTruncatedAndIncompleteLines) {
  const std::string good = SampleObservation().ToJsonLine();
  EXPECT_FALSE(Observation::FromJsonLine(good.substr(0, 40)).ok());
  EXPECT_FALSE(Observation::FromJsonLine("not json at all").ok());
  EXPECT_FALSE(
      Observation::FromJsonLine("{\"scenario\": \"x\"}").ok());  // fields gone
  EXPECT_EQ(Observation::FromJsonLine(good.substr(0, 40)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ObservationLogTest, ReadMissingFileIsNotFound) {
  auto contents = ObservationLog::Read(TempPath("no_such_log.jsonl"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST(ObservationLogTest, AppendThenReadRoundTrips) {
  const std::string path = TempPath("append_roundtrip.jsonl");
  std::remove(path.c_str());
  ObservationLog log(path);
  Observation first = SampleObservation();
  Observation second = SampleObservation();
  second.scenario = "union";
  second.training_iterations = 5.0;
  ASSERT_TRUE(log.Append(first).ok());
  ASSERT_TRUE(log.Append(second).ok());

  auto contents = ObservationLog::Read(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->skipped_lines, 0u);
  ASSERT_EQ(contents->observations.size(), 2u);
  EXPECT_EQ(contents->observations[0].scenario, "inner_join");
  EXPECT_EQ(contents->observations[1].scenario, "union");
  EXPECT_EQ(contents->observations[1].training_iterations, 5.0);
}

TEST(ObservationLogTest, CorruptAndTruncatedLinesAreSkippedAndCounted) {
  const std::string path = TempPath("corrupt_lines.jsonl");
  const std::string good = SampleObservation().ToJsonLine();
  {
    std::ofstream out(path, std::ios::trunc);
    out << good << "\n";
    out << "garbage that is not json\n";
    out << good.substr(0, good.size() / 2) << "\n";  // killed mid-write
    out << "\n";                                     // blank: not counted
    out << good << "\n";
  }
  auto contents = ObservationLog::Read(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->observations.size(), 2u);
  EXPECT_EQ(contents->skipped_lines, 2u);
}

TEST(ObservationLogTest, ConcurrentAppendsInterleaveWholeLines) {
  const std::string path = TempPath("concurrent_appends.jsonl");
  std::remove(path.c_str());
  ObservationLog log(path);
  constexpr size_t kRecords = 64;
  // Appends race from ParallelFor workers; the log's internal mutex must
  // serialize them so every line parses back (bytes never interleave).
  common::ScopedNumThreads threads(4);
  common::ParallelFor(0, kRecords, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Observation o = SampleObservation();
      o.scenario = "record_" + std::to_string(i);
      ASSERT_TRUE(log.Append(o).ok());
    }
  });

  auto contents = ObservationLog::Read(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->skipped_lines, 0u);
  ASSERT_EQ(contents->observations.size(), kRecords);
  std::set<std::string> scenarios;
  for (const Observation& o : contents->observations) {
    scenarios.insert(o.scenario);
  }
  EXPECT_EQ(scenarios.size(), kRecords);  // every record arrived intact
}

TEST(ObservationLogTest, DefaultPathHonorsEnvironment) {
  unsetenv(kObservationLogEnvVar);
  EXPECT_EQ(ObservationLog::DefaultPath(), "observations.jsonl");
  setenv(kObservationLogEnvVar, "/tmp/custom_obs.jsonl", 1);
  EXPECT_EQ(ObservationLog::DefaultPath(), "/tmp/custom_obs.jsonl");
  unsetenv(kObservationLogEnvVar);
}

}  // namespace
}  // namespace cost
}  // namespace amalur
