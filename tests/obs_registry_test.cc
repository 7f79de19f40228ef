#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace sc::obs {
namespace {

TEST(Counter, IncrementsAtomically) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 40000);
}

TEST(Gauge, SetAndAdd) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.Add(-6.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.0);
}

TEST(Gauge, SetMaxKeepsTheHighWaterMark) {
  Gauge gauge;
  gauge.SetMax(3.0);
  gauge.SetMax(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 1000; ++i) gauge.SetMax(t * 1000 + i);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 3999.0);
}

TEST(Gauge, ConcurrentAddLosesNothing) {
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 5000; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 20000.0);
}

TEST(Histogram, CumulativeBucketsAndSum) {
  Histogram h({0.01, 0.1, 1.0});
  h.Observe(0.005);  // <= 0.01
  h.Observe(0.05);   // <= 0.1
  h.Observe(0.05);
  h.Observe(0.5);  // <= 1.0
  h.Observe(5.0);  // +Inf only
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.cumulative(0), 1);
  EXPECT_EQ(h.cumulative(1), 3);
  EXPECT_EQ(h.cumulative(2), 4);
  EXPECT_EQ(h.cumulative(3), 5);  // +Inf bucket == count
  EXPECT_NEAR(h.sum(), 5.605, 1e-6);
}

// The sum keeps full precision: no rounding to a fixed unit, so a
// sub-microsecond observation still counts.
TEST(Histogram, SumIsExact) {
  Histogram h(Histogram::LatencyBounds());
  h.Observe(0.021587766);
  EXPECT_EQ(h.sum(), 0.021587766);
  Histogram tiny(Histogram::LatencyBounds());
  tiny.Observe(4e-7);
  EXPECT_GT(tiny.sum(), 0.0);
}

TEST(Histogram, LatencyBoundsAreAtMostSqrt2Apart) {
  const std::vector<double> bounds = Histogram::LatencyBounds();
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-4);
  EXPECT_GE(bounds.back(), 100.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i] / bounds[i - 1], std::sqrt(2.0) * (1 + 1e-12)) << i;
  }
}

TEST(Histogram, QuantileInterpolatesWithinTheBucket) {
  // Prometheus histogram_quantile: 10 observations <= 1, 10 in (1, 2].
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.Observe(0.5);
  for (int i = 0; i < 10; ++i) h.Observe(1.5);
  std::vector<std::int64_t> cumulative;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    cumulative.push_back(h.cumulative(i));
  }
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.5, h.bounds(), cumulative), 1.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.25, h.bounds(), cumulative), 0.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.75, h.bounds(), cumulative), 1.5);
  // A rank in the +Inf bucket reports the highest finite bound.
  h.Observe(100.0);
  cumulative.back() = h.count();
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.99, h.bounds(), cumulative), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.5, {1.0}, {0, 0}), 0.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameSeries) {
  Registry registry;
  Counter* a = registry.GetCounter("x_total", "help");
  Counter* b = registry.GetCounter("x_total", "help");
  EXPECT_EQ(a, b);
  Counter* labeled =
      registry.GetCounter("x_total", "help", {{"tenant", "t0"}});
  EXPECT_NE(a, labeled);
}

TEST(Registry, PrometheusGoldenText) {
  Registry registry;
  registry.GetCounter("sc_jobs_total", "Finished jobs",
                      {{"tenant", "a"}, {"status", "ok"}})
      ->Increment(3);
  registry.GetGauge("sc_queue_depth", "Queued jobs")->Set(2);
  Histogram* h = registry.GetHistogram("sc_wait_seconds", "Wait time", {},
                                       {0.5, 1.0});
  h->Observe(0.25);
  h->Observe(0.75);
  h->Observe(2.0);
  registry.RegisterCallbackGauge("sc_live", "Live value", {},
                                 [] { return 7.0; });

  // Families sorted by name; labels sorted by key; histogram exposes
  // cumulative le-buckets plus _sum/_count. This exact text is the
  // documented exposition contract.
  const std::string expected =
      "# HELP sc_jobs_total Finished jobs\n"
      "# TYPE sc_jobs_total counter\n"
      "sc_jobs_total{status=\"ok\",tenant=\"a\"} 3\n"
      "# HELP sc_live Live value\n"
      "# TYPE sc_live gauge\n"
      "sc_live 7\n"
      "# HELP sc_queue_depth Queued jobs\n"
      "# TYPE sc_queue_depth gauge\n"
      "sc_queue_depth 2\n"
      "# HELP sc_wait_seconds Wait time\n"
      "# TYPE sc_wait_seconds histogram\n"
      "sc_wait_seconds_bucket{le=\"0.5\"} 1\n"
      "sc_wait_seconds_bucket{le=\"1\"} 2\n"
      "sc_wait_seconds_bucket{le=\"+Inf\"} 3\n"
      "sc_wait_seconds_sum 3\n"
      "sc_wait_seconds_count 3\n";
  EXPECT_EQ(ToPrometheusText(registry), expected);
}

TEST(Registry, LabelValuesAreEscaped) {
  Registry registry;
  registry.GetCounter("jobs_total", "", {{"tenant", "acme\"prod\\eu\nx"}})
      ->Increment();
  EXPECT_NE(registry.ToPrometheusText().find(
                "jobs_total{tenant=\"acme\\\"prod\\\\eu\\nx\"} 1\n"),
            std::string::npos)
      << registry.ToPrometheusText();
}

TEST(Registry, SnapshotAndDelta) {
  Registry registry;
  Counter* jobs = registry.GetCounter("jobs_total", "jobs");
  Histogram* wait =
      registry.GetHistogram("wait_seconds", "wait", {}, {1.0});
  jobs->Increment(2);
  wait->Observe(0.5);
  const auto before = registry.Snapshot();
  EXPECT_DOUBLE_EQ(before.at("jobs_total"), 2.0);
  EXPECT_DOUBLE_EQ(before.at("wait_seconds_count"), 1.0);

  jobs->Increment(3);
  wait->Observe(0.25);
  wait->Observe(0.25);
  registry.GetGauge("new_gauge", "appears later")->Set(9.0);
  const auto delta = SnapshotDelta(before, registry.Snapshot());
  EXPECT_DOUBLE_EQ(delta.at("jobs_total"), 3.0);
  EXPECT_DOUBLE_EQ(delta.at("wait_seconds_count"), 2.0);
  EXPECT_NEAR(delta.at("wait_seconds_sum"), 0.5, 1e-9);
  // Keys only in `after` report their full value.
  EXPECT_DOUBLE_EQ(delta.at("new_gauge"), 9.0);
}

TEST(Registry, CallbackGaugeReadsLiveValue) {
  Registry registry;
  double value = 1.0;
  registry.RegisterCallbackGauge("live", "", {}, [&value] { return value; });
  EXPECT_DOUBLE_EQ(registry.Snapshot().at("live"), 1.0);
  value = 42.0;
  EXPECT_DOUBLE_EQ(registry.Snapshot().at("live"), 42.0);
}

}  // namespace
}  // namespace sc::obs
