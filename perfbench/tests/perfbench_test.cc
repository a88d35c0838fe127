// The benchmark's own tests: the result check, the statistics helpers and
// span self time. The tiny-SF smoke pass of every workload is
// `python3 perfbench/run.py --self-test`, which also runs this binary.
#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "src/layers.h"
#include "src/report.h"
#include "src/spans.h"
#include "src/workloads.h"
#include "tpch/tpch_gen.h"

namespace perfbench {
namespace {

TEST(Report, PercentileInterpolatesBetweenRanks) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 3);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 5);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.95), 4.8);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
}

TEST(Report, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
  EXPECT_NEAR(GeoMean({1, 10, 100}), 10, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0);
}

TEST(Report, ResultJsonKeepsAllDigits) {
  std::string json = ResultJson(true, 3, 0, {{"latency_ms", 1.0 / 3, "ms"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"ms\"}}}");
}

TEST(Digest, CatchesACorruptedRow) {
  aqe::Catalog catalog;
  aqe::tpch::BuildTpchDatabase(&catalog, 0.002);
  aqe::QueryEngine engine(&catalog, 2);
  for (int number : {1, 6}) {
    aqe::QueryProgram reference_plan = aqe::BuildTpchQuery(number, catalog);
    CompileCounts counts;
    uint64_t reference = RowsDigest(
        ReferenceWalk(reference_plan, catalog, nullptr, -1, -1, &counts));

    aqe::QueryProgram plan = aqe::BuildTpchQuery(number, catalog);
    std::vector<std::vector<int64_t>> rows = engine.Run(plan).rows;
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(RowsDigest(rows), reference) << "q" << number;

    rows.back().back() += 1;
    EXPECT_NE(RowsDigest(rows), reference) << "q" << number;
    rows.back().back() -= 1;
    std::swap(rows.front(), rows.back());
    if (rows.size() > 1) EXPECT_NE(RowsDigest(rows), reference);
    rows.pop_back();
    EXPECT_NE(RowsDigest(rows), reference) << "q" << number;
  }
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100): children [10,30) and [20,50) overlap -> cover 40;
  // grandchild [12,18) under the first child only.
  std::vector<Span> spans = {
      {"root", -1, 1, 0, 100},
      {"a", 0, 1, 10, 30},
      {"b", 0, 1, 20, 50},
      {"a.inner", 1, 1, 12, 18},
      {"other", -1, 2, 0, 7},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{60, 14, 30, 6, 7}));
  // Per query: "a" and "b" both under query 1.
  std::vector<double> per_query = SelfSecondsPerQuery(spans, self, "root");
  ASSERT_EQ(per_query.size(), 1u);
  EXPECT_DOUBLE_EQ(per_query[0], 60e-9);
  EXPECT_EQ(SelfSecondsPerSpan(spans, self, "b").size(), 1u);
}

TEST(Spans, ScopedSpanNestsAndIgnoresNullLog) {
  SpanLog log;
  {
    ScopedSpan root(&log, "root", -1, 9);
    ScopedSpan child(&log, "child", root.id(), 9);
    ScopedSpan ignored(nullptr, "nothing", -1, 9);
    EXPECT_EQ(ignored.id(), -1);
  }
  std::vector<Span> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Workloads, SameSeedSamePlans) {
  for (const std::string& name : WorkloadNames()) {
    Workload a, b, c;
    ASSERT_TRUE(MakeWorkload(name, 3, 0, &a));
    ASSERT_TRUE(MakeWorkload(name, 3, 0, &b));
    ASSERT_TRUE(MakeWorkload(name, 4, 0, &c));
    ASSERT_EQ(a.plans.size(), b.plans.size());
    for (size_t i = 0; i < a.plans.size(); ++i) {
      EXPECT_EQ(a.plans[i].name, b.plans[i].name);
    }
    EXPECT_EQ(a.plans.size(), c.plans.size()) << name;
  }
  Workload wide;
  ASSERT_TRUE(MakeWorkload("cold_wide", 11, 0, &wide));
  int generated = 0;
  for (const PlanSpec& spec : wide.plans) {
    if (spec.kind != PlanKind::kGenerated) continue;
    ++generated;
    EXPECT_GE(spec.width, 25);
    EXPECT_LE(spec.width, 400);
  }
  EXPECT_GT(generated, 0);
  EXPECT_FALSE(MakeWorkload("nope", 1, 0, &wide));
}

}  // namespace
}  // namespace perfbench
