// Tests of the benchmark's own code: the metric-name grammar, the quartile
// helper (against values Python's statistics.quantiles gives), the result
// document, spans, the pin comparison and failure counting, and the
// allocation counter.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "reference.h"
#include "report.h"
#include "runner.h"
#include "workloads.h"

namespace draconis::simbench {
namespace {

TEST(MetricNameTest, AcceptsTheBenchmarksNames) {
  for (const char* name : {"tasks_per_wall_s", "setup_s", "sim.oneshot_ns", "p4.empty_pull_ns",
                           "net.allocs_per_hop_batch", "9lives", "a-b.c_d"}) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
}

TEST(MetricNameTest, RejectsMalformedNames) {
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, Units) {
  for (const char* unit : {"ms", "s", "1/s", "count", "%", "MB", "ratio"}) {
    EXPECT_TRUE(ValidUnit(unit)) << unit;
  }
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("m s"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

// Expected values: statistics.quantiles(values, n=4) on Python 3.11.
TEST(QuartilesTest, MatchesPythonExclusiveMethod) {
  const Quartiles ten = ComputeQuartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  const Quartiles two = ComputeQuartiles({1.0, 2.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  const Quartiles five = ComputeQuartiles({3.0, 1.0, 4.0, 1.5, 5.0});
  EXPECT_DOUBLE_EQ(five.q1, 1.25);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
}

TEST(QuartilesTest, SingleValueAndMedian) {
  const Quartiles one = ComputeQuartiles({7.0});
  EXPECT_EQ(one.q1, 7.0);
  EXPECT_EQ(one.q3, 7.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(ComputeQuartiles({}), CheckFailure);
}

TEST(ResultJsonTest, CarriesEveryMetricWithItsUnit) {
  const std::string text =
      ResultJson(true, 4, 0, {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.8127, "s"}});
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(text, &doc, &error)) << error;
  EXPECT_TRUE(doc.Find("correct")->AsBool());
  EXPECT_EQ(doc.Find("attempted")->AsInt(), 4);
  EXPECT_EQ(doc.Find("failed")->AsInt(), 0);
  const json::Value* latency = doc.Find("metrics")->Find("latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->Find("value")->AsDouble(), 1.2034);
  EXPECT_EQ(latency->Find("unit")->AsString(), "ms");
}

TEST(ResultJsonTest, RejectsBadNamesUnitsAndRepeats) {
  EXPECT_THROW(ResultJson(true, 1, 0, {{"_bad", 1.0, "s"}}), CheckFailure);
  EXPECT_THROW(ResultJson(true, 1, 0, {{"ok", 1.0, "bad unit"}}), CheckFailure);
  EXPECT_THROW(ResultJson(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}}), CheckFailure);
}

TEST(SpanLogTest, RecordsParentsAndSelfTime) {
  SpanLog log;
  int root = 0;
  int child = 0;
  {
    ScopedSpan outer(&log, "outer");
    root = outer.id();
    ScopedSpan inner(&log, "inner");
    child = inner.id();
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[root].parent, SpanLog::kNoParent);
  EXPECT_EQ(log.spans()[child].parent, root);
  EXPECT_LE(log.spans()[root].start_s, log.spans()[child].start_s);
  EXPECT_GE(log.spans()[root].end_s, log.spans()[child].end_s);
  EXPECT_NEAR(log.SelfTime(root), log.Duration(root) - log.Duration(child), 1e-12);

  ScopedSpan untraced(nullptr, "ignored");
  EXPECT_EQ(log.spans().size(), 2u);
}

TEST(PinsTest, EveryWorkloadIsPinnedAndFindable) {
  ASSERT_EQ(Workloads().size(), 4u);
  for (const Workload& w : Workloads()) {
    EXPECT_EQ(FindWorkload(w.name), &w);
    EXPECT_TRUE(ValidMetricName(w.name));
    EXPECT_GT(w.pins.tasks_assigned, 0u) << w.name;
    EXPECT_TRUE(w.make_config(w.pinned_seed).Validate().empty()) << w.name;
  }
  EXPECT_EQ(FindWorkload("no-such-workload"), nullptr);
}

TEST(PinsTest, PerturbedPinIsReportedPerField) {
  const Outputs pinned = Workloads()[0].pins;
  EXPECT_TRUE(DiffOutputs(pinned, pinned).empty());

  Outputs got = pinned;
  got.switch_passes += 1;
  got.throughput_tps = std::nextafter(got.throughput_tps, 0.0);
  const std::vector<std::string> diffs = DiffOutputs(got, pinned);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].rfind("switch_passes:", 0), 0u) << diffs[0];
  EXPECT_EQ(diffs[1].rfind("throughput_tps:", 0), 0u) << diffs[1];
}

// The whole failure path on the cheapest workload: the pinned seed passes
// and repeats exactly; the same run against a perturbed pin is counted as
// failed; another seed skips the pins but keeps every other check.
TEST(RunnerTest, PerturbedPinIsCountedAsFailure) {
  const Workload& real = *FindWorkload("server-batch");
  Runner ok(real, real.pinned_seed);
  ok.Verify();
  ok.Measure(0.0, 2, nullptr);
  EXPECT_EQ(ok.attempted(), 3u);
  EXPECT_EQ(ok.failed(), 0u);
  ASSERT_EQ(ok.reps().size(), 2u);
  EXPECT_GT(ok.reps()[0].allocs, 0u);
  EXPECT_EQ(ok.reps()[0].allocs, ok.reps()[1].allocs);
  EXPECT_EQ(ok.reps()[0].outputs, real.pins);

  Workload perturbed = real;
  perturbed.pins.completions -= 1;
  Runner bad(perturbed, perturbed.pinned_seed);
  bad.Verify();
  EXPECT_EQ(bad.failed(), 1u);
  bad.Measure(0.0, 1, nullptr);
  EXPECT_EQ(bad.failed(), 2u);
  EXPECT_TRUE(bad.reps().empty());

  Runner other_seed(perturbed, perturbed.pinned_seed + 1);
  other_seed.Measure(0.0, 2, nullptr);
  EXPECT_EQ(other_seed.failed(), 0u);
  EXPECT_EQ(other_seed.reps().size(), 2u);
}

TEST(RunnerTest, SetupIsTimedInSpans) {
  const Workload& w = *FindWorkload("server-batch");
  SpanLog log;
  const SetupTimes t = TimeSetup(w.make_config(w.pinned_seed), &log);
  EXPECT_GT(t.generate_s, 0.0);
  EXPECT_GT(t.build_s, 0.0);
  std::vector<std::string> names;
  for (const SpanLog::Span& span : log.spans()) {
    names.push_back(span.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"setup", "workload.generate", "cluster.testbed",
                                             "cluster.make", "cluster.build",
                                             "cluster.wire_workers"}));
}

TEST(ReferenceTest, CorrectsToTheNominalMachine) {
  EXPECT_GT(TimeReferenceLoop(), 0.0);
  // A machine running the loop at half the nominal speed takes twice as
  // long for everything; corrected seconds undo that.
  EXPECT_DOUBLE_EQ(CorrectedSeconds(2.0, 2 * kReferenceNominalS), 1.0);
  EXPECT_DOUBLE_EQ(CorrectedSeconds(1.0, kReferenceNominalS), 1.0);
}

std::vector<int>* volatile g_escape = nullptr;

TEST(AllocCountTest, CountsEveryOperatorNew) {
  const uint64_t before = AllocCount();
  g_escape = new std::vector<int>(8);  // the vector object and its buffer
  EXPECT_EQ(AllocCount() - before, 2u);
  delete g_escape;
  EXPECT_EQ(AllocCount() - before, 2u);
}

TEST(InvariantsTest, FlagsImpossibleCounts) {
  Outputs outputs;
  LayerCounts counts;
  EXPECT_EQ(CheckInvariants(outputs, counts).size(), 2u);  // no work, no throughput
  outputs.tasks_assigned = 5;
  outputs.completions = 6;
  outputs.throughput_tps = 1.0;
  counts.p4_passes = 1;
  counts.p4_recirculations = 2;
  EXPECT_EQ(CheckInvariants(outputs, counts).size(), 2u);
}

}  // namespace
}  // namespace draconis::simbench
