// Tests for the benchmark's own helpers: sample statistics (with the
// ten-beyond rule for tail percentiles), span self time, metric naming,
// and the per-layer list against BENCHMARK.json.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
  return xs;
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile) {
  const std::vector<double> xs = iota(10);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.91), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.01), 1.0);
  EXPECT_THROW(percentile(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 1.5), std::invalid_argument);
}

TEST(Stats, SamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);  // rank ceil(89.1) = 90
  EXPECT_EQ(samples_beyond(10, 1.0), 0u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile(iota(99), 0.9).has_value());
  const auto p90 = tail_percentile(iota(100), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
  // A median of nine samples leaves only four beyond it.
  EXPECT_FALSE(tail_percentile(iota(9), 0.5).has_value());
  EXPECT_TRUE(tail_percentile(iota(9), 0.5, 4).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.5, 0).has_value());
}

TEST(Trace, CoveredCountsOverlapOnceAndClips) {
  EXPECT_EQ(covered_ns({{10, 50}, {40, 70}}, 0, 100), 60);
  EXPECT_EQ(covered_ns({{10, 20}, {30, 40}}, 0, 100), 20);
  EXPECT_EQ(covered_ns({{20, 30}, {10, 60}}, 0, 100), 50);  // nested
  EXPECT_EQ(covered_ns({{-10, 20}, {90, 150}}, 0, 100), 30);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
}

TEST(Trace, SelfTimeSubtractsOverlappingChildrenOnce) {
  // Root [0, 100) with two overlapping children (as two threads would
  // record) and a grandchild that only its own parent subtracts.
  const std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},
      {"a", 10, 50, 0, 1},
      {"b", 40, 70, 0, 1},
      {"a.inner", 20, 30, 1, 1},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 40);  // 100 - |[10, 70)|
  EXPECT_EQ(self[1], 30);  // 40 - 10
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);

  const SpanTotals tot(spans);
  EXPECT_EQ(tot.count("op"), 1u);
  EXPECT_DOUBLE_EQ(tot.total_s("op"), 100e-9);
  EXPECT_DOUBLE_EQ(tot.self_s("op"), 40e-9);
  EXPECT_EQ(tot.count("absent"), 0u);
  EXPECT_DOUBLE_EQ(tot.total_s("absent"), 0.0);
}

TEST(Trace, ScopesNestPerThreadAndNullTracerRecordsNothing) {
  Tracer t;
  {
    Tracer::Scope op(&t, "op", 7);
    { Tracer::Scope child(&t, "child", 7); }
    std::thread other([&] { Tracer::Scope s(&t, "other", 8); });
    other.join();
    Tracer::Scope none(nullptr, "ignored", 7);
  }
  const std::vector<Span> spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "op");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].op, 7u);
  EXPECT_EQ(spans[2].name, "other");
  EXPECT_EQ(spans[2].parent, -1);  // a new thread starts at the root
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(Names, MetricNamesFollowTheRules) {
  EXPECT_TRUE(valid_metric_name("op_s"));
  EXPECT_TRUE(valid_metric_name("service.exec_s.cpd"));
  EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_op"));
  EXPECT_FALSE(valid_metric_name(".op"));
  EXPECT_FALSE(valid_metric_name("op s"));
  EXPECT_FALSE(valid_metric_name("op/s"));
}

TEST(Names, UnitsFollowTheRules) {
  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("MiB"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("per second"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(Names, LayerMetricsAreValidUniqueAndPrefixedByTheirModule) {
  const std::set<std::string> modules = {
      "generator", "io_stream", "external_sort", "mode_views", "mttkrp_par",
      "linalg", "autotune", "format_select", "segmenter", "plan", "pipeline",
      "streaming", "cpd", "gpusim", "job_queue", "plan_cache", "service",
      "trace"};
  std::set<std::string> seen;
  for (const Metric& m : layer_metric_defs()) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    EXPECT_EQ(modules.count(m.name.substr(0, m.name.find('.'))), 1u) << m.name;
  }
  RunResult r;
  EXPECT_THROW(r.layer("nope.busy_s", 1.0), std::invalid_argument);
  r.layer("linalg.busy_s", 2.0, 3);
  const std::vector<Metric> all = per_layer_metrics(r);
  ASSERT_EQ(all.size(), layer_metric_defs().size());
  for (const Metric& m : all) {
    EXPECT_DOUBLE_EQ(m.value, m.name == "linalg.busy_s" ? 2.0 : 0.0);
  }
}

TEST(Names, BenchmarkJsonDeclaresExactlyTheLayerMetrics) {
  const auto spec = scalfrag::obs::JsonValue::parse_file(PERFBENCH_SPEC);
  std::vector<std::pair<std::string, std::string>> declared;
  for (const auto& m : spec.at("per_layer").as_array()) {
    declared.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
  }
  std::vector<std::pair<std::string, std::string>> reported;
  for (const Metric& m : layer_metric_defs()) reported.emplace_back(m.name, m.unit);
  EXPECT_EQ(declared, reported);
}

}  // namespace
}  // namespace perfbench
