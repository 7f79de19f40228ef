#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/controller.h"
#include "service/service.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::service {
namespace {

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_service_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Loads tiny TPC-DS data into `disk` and returns the Io1 workload with
/// observed execution metadata (sizes, compute times, speedup scores).
std::shared_ptr<const workload::MvWorkload> AnnotatedWorkload(
    storage::ThrottledDisk* disk) {
  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  runtime::Controller profiler(disk, runtime::ControllerOptions{});
  profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  const runtime::RunReport report = profiler.ProfileAndAnnotate(wl.get());
  EXPECT_TRUE(report.ok) << report.error;
  return wl;
}

TEST(RefreshServiceTest, StressConcurrentTenantsNeverExceedGlobalBudget) {
  storage::ThrottledDisk disk(FreshDir("stress"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  const std::int64_t global_budget = 16LL * 1024 * 1024;
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = global_budget;
  RefreshService service(&disk, options);

  // 12 jobs from 3 tenants asking for half or three quarters of the
  // global budget, so concurrent grants contend and some jobs run on
  // partial funding (and re-optimize at their granted budget).
  constexpr int kJobs = 12;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i % 3);
    spec.priority = i % 2;
    spec.requested_budget =
        i % 2 == 0 ? global_budget / 2 : 3 * global_budget / 4;
    futures.push_back(service.Submit(std::move(spec)));
  }

  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_TRUE(result.report.ok) << result.report.error;
    EXPECT_GT(result.granted_budget, 0);
    EXPECT_LE(result.granted_budget, result.requested_budget);
    // Each run stayed inside its granted slice of the catalog.
    EXPECT_LE(result.report.peak_memory, result.granted_budget);
  }

  // The arbitration invariant: concurrent reservations never exceeded
  // the global budget, and everything was handed back.
  EXPECT_LE(service.broker().peak_reserved_bytes(), global_budget);
  EXPECT_GT(service.broker().peak_reserved_bytes(), 0);
  service.Shutdown();
  EXPECT_EQ(service.broker().reserved_bytes(), 0);

  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_completed, kJobs);
  EXPECT_EQ(snapshot.aggregate.jobs_failed, 0);
  EXPECT_EQ(snapshot.per_tenant.size(), 3u);
  EXPECT_GT(snapshot.aggregate.p99_latency_seconds, 0.0);
  EXPECT_GE(snapshot.aggregate.p99_latency_seconds,
            snapshot.aggregate.p50_latency_seconds);
}

TEST(RefreshServiceTest, RepeatRefreshHitsPlanCache) {
  storage::ThrottledDisk disk(FreshDir("plancache"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "repeat";
  const JobResult first = service.Submit(spec).get();
  EXPECT_TRUE(first.report.ok) << first.report.error;
  EXPECT_FALSE(first.plan_cache_hit);

  // With cross-job sharing, the second refresh sees the first's outputs
  // resident and re-optimizes for that residency — an
  // honest non-hit. The adjusted plan is cached under the residency-
  // salted key, so the *third* refresh (same resident set) is a pure
  // cache hit: the steady-state serving regime.
  const JobResult second = service.Submit(spec).get();
  EXPECT_TRUE(second.report.ok) << second.report.error;
  EXPECT_TRUE(second.reoptimized);
  const JobResult third = service.Submit(spec).get();
  EXPECT_TRUE(third.report.ok) << third.report.error;
  EXPECT_TRUE(third.plan_cache_hit);
  EXPECT_FALSE(third.reoptimized);
  EXPECT_GE(service.plan_cache().stats().hits, 1);
}

TEST(RefreshServiceTest, CatalogStatsFlowIntoMetrics) {
  storage::ThrottledDisk disk(FreshDir("catstats"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "stats";
  const JobResult result = service.Submit(spec).get();
  ASSERT_TRUE(result.report.ok) << result.report.error;
  // A funded run serves at least one input from the Memory Catalog.
  EXPECT_GT(result.report.catalog_hits, 0);
  EXPECT_GT(result.report.CatalogHitRate(), 0.0);

  const MetricsSnapshot snapshot = service.metrics();
  const auto it = snapshot.per_tenant.find("stats");
  ASSERT_NE(it, snapshot.per_tenant.end());
  EXPECT_GT(it->second.catalog_hit_rate(), 0.0);
  EXPECT_EQ(it->second.catalog_hits, result.report.catalog_hits);
  EXPECT_NE(service.PrometheusText().find(
                "sc_job_catalog_hits_total{tenant=\"stats\"} " +
                std::to_string(result.report.catalog_hits) + "\n"),
            std::string::npos);
  EXPECT_NE(FormatTable(snapshot).find("stats"), std::string::npos);
}

TEST(RefreshServiceTest, TenantQuotaCapsGrant) {
  storage::ThrottledDisk disk(FreshDir("quota"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  const std::int64_t quota = 2LL * 1024 * 1024;
  service.SetTenantQuota("capped", quota);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "capped";
  spec.requested_budget = 8LL * 1024 * 1024;
  const JobResult result = service.Submit(spec).get();
  EXPECT_TRUE(result.report.ok) << result.report.error;
  EXPECT_LE(result.granted_budget, quota);
}

TEST(RefreshServiceTest, ExecutionFailureIsReportedNotThrown) {
  storage::ThrottledDisk disk(FreshDir("fail"), FastDisk());
  // No base tables loaded: every job must fail cleanly.
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  ServiceOptions options;
  options.num_workers = 2;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "broken";
  const JobResult result = service.Submit(spec).get();
  EXPECT_FALSE(result.report.ok);
  EXPECT_FALSE(result.report.error.empty());
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_failed, 1);
  // The failure released its budget: the broker is clean.
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
}

TEST(RefreshServiceTest, SubmitAfterShutdownThrows) {
  storage::ThrottledDisk disk(FreshDir("shutdown"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  RefreshService service(&disk, ServiceOptions{});
  service.Shutdown();
  RefreshJobSpec spec;
  spec.workload = wl;
  EXPECT_THROW(service.Submit(std::move(spec)), std::runtime_error);
}

TEST(RefreshServiceTest, NonDrainingShutdownFailsPendingJobs) {
  storage::ThrottledDisk disk(FreshDir("nodrain"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  RefreshService service(&disk, options);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    futures.push_back(service.Submit(std::move(spec)));
  }
  service.Shutdown(/*drain=*/false);
  int completed = 0;
  int rejected = 0;
  for (auto& future : futures) {
    const JobResult result = future.get();  // every future must resolve
    if (result.report.ok) {
      ++completed;
    } else {
      EXPECT_NE(result.report.error.find("shutting down"),
                std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, 6);
}

TEST(RefreshServiceTest, PrometheusTextEscapesTenantLabels) {
  storage::ThrottledDisk disk(FreshDir("labelesc"), FastDisk());
  // Jobs fail (no base tables), which must still be counted per tenant.
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  ServiceOptions options;
  options.num_workers = 1;
  RefreshService service(&disk, options);
  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "acme\"prod\\eu";
  const JobResult result = service.Submit(std::move(spec)).get();
  EXPECT_FALSE(result.report.ok);
  const std::string text = service.PrometheusText();
  EXPECT_NE(text.find("sc_jobs_total{status=\"failed\","
                      "tenant=\"acme\\\"prod\\\\eu\"} 1\n"),
            std::string::npos)
      << text;
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_failed, 1);
  EXPECT_EQ(snapshot.per_tenant.count("acme\"prod\\eu"), 1u);
}

TEST(RefreshServiceTest, NullWorkloadRejected) {
  storage::ThrottledDisk disk(FreshDir("null"), FastDisk());
  RefreshService service(&disk, ServiceOptions{});
  EXPECT_THROW(service.Submit(RefreshJobSpec{}), std::invalid_argument);
}

TEST(ParallelismBrokerTest, SplitKeepsThreadBudgetBounded) {
  const ParallelismSplit a = ParallelismBroker::Split(8, 1);
  EXPECT_EQ(a.workers, 8);
  EXPECT_EQ(a.lanes_per_job, 1);
  const ParallelismSplit b = ParallelismBroker::Split(8, 4);
  EXPECT_EQ(b.workers, 2);
  EXPECT_EQ(b.lanes_per_job, 4);
  // Lanes above the budget are clamped; the budget is never multiplied.
  const ParallelismSplit c = ParallelismBroker::Split(2, 8);
  EXPECT_EQ(c.workers, 1);
  EXPECT_EQ(c.lanes_per_job, 2);
  EXPECT_LE(c.workers * c.lanes_per_job, 2);
}

TEST(ParallelismBrokerTest, PreferredWidthCapsTheLease) {
  ParallelismBroker broker(8, 4);
  // A chain-shaped job (antichain width 1) leases a single lane even
  // though its cap and the free budget would allow more.
  const int narrow = broker.AcquireLanes(/*preferred=*/1);
  EXPECT_EQ(narrow, 1);
  const int wide = broker.AcquireLanes(/*preferred=*/16);
  EXPECT_EQ(wide, 4);  // clamped to the per-job cap
  broker.ReleaseLanes(narrow);
  broker.ReleaseLanes(wide);
  EXPECT_EQ(broker.lanes_in_use(), 0);
}

TEST(ParallelismBrokerTest, IdleWorkersLanesAreBorrowable) {
  ParallelismBroker broker(8, 4);
  const int first = broker.AcquireLanes();
  EXPECT_EQ(first, 4);  // lone job gets its full cap
  const int second = broker.AcquireLanes();
  EXPECT_EQ(second, 4);
  // Budget exhausted: further jobs still run, at one lane.
  const int third = broker.AcquireLanes();
  EXPECT_EQ(third, 1);
  broker.ReleaseLanes(first);
  broker.ReleaseLanes(second);
  broker.ReleaseLanes(third);
  EXPECT_EQ(broker.lanes_in_use(), 0);
}

TEST(RefreshServiceTest, IntraJobLanesExecuteJobsCorrectly) {
  storage::ThrottledDisk disk(FreshDir("lanes"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 4;  // total thread budget
  options.max_intra_job_lanes = 4;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  EXPECT_EQ(service.parallelism().workers, 1);
  EXPECT_EQ(service.parallelism().lanes_per_job, 4);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "lanes";
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_TRUE(result.report.ok) << result.report.error;
    EXPECT_GE(result.lanes, 1);
    EXPECT_LE(result.lanes, 4);
    EXPECT_LE(result.report.peak_memory, result.granted_budget);
  }
  service.Shutdown();
  EXPECT_EQ(service.lanes_broker().lanes_in_use(), 0);
}

TEST(RefreshServiceTest, UnusedBudgetIsReturnedMidRun) {
  storage::ThrottledDisk disk(FreshDir("return"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 256LL * 1024 * 1024;
  RefreshService service(&disk, options);

  // The whole global budget is far more than Io1's flagged set needs at
  // tiny scale, so most of the grant goes back to the broker early.
  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "frugal";
  spec.requested_budget = options.global_budget;
  const JobResult result = service.Submit(std::move(spec)).get();
  ASSERT_TRUE(result.report.ok) << result.report.error;
  EXPECT_GT(result.returned_budget, 0);
  EXPECT_LT(result.report.budget,
            result.granted_budget);  // ran on the shrunk grant
  EXPECT_LE(result.report.peak_memory, result.report.budget);
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_GT(snapshot.aggregate.bytes_returned, 0);
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
}

/// Nodes computed rather than reused from the shared catalog across a set
/// of finished jobs — the recompute work the shared catalog is supposed to
/// eliminate, counted instead of timed so that load on the host cannot
/// flip the comparison.
int RecomputedNodes(const std::vector<JobResult>& results) {
  int recomputed = 0;
  for (const JobResult& r : results) {
    for (const runtime::NodeRunStats& node : r.report.nodes) {
      if (!node.reused_cross_job) ++recomputed;
    }
  }
  return recomputed;
}

/// Runs one seed job (tenant "seed") followed by `followers` concurrent
/// tenants refreshing the same workload, and returns all results.
std::vector<JobResult> RunSharedWorkload(RefreshService* service,
                                         std::shared_ptr<const workload::MvWorkload> wl,
                                         int followers) {
  RefreshJobSpec seed;
  seed.workload = wl;
  seed.tenant = "seed";
  std::vector<JobResult> results;
  results.push_back(service->Submit(seed).get());
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < followers; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i);
    futures.push_back(service->Submit(std::move(spec)));
  }
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

// Tenants refreshing the same workload concurrently read each other's
// resident outputs — nonzero cross_job_hits and strictly less total
// recompute than the same traffic against private catalogs, where every
// job computes every node.
TEST(RefreshServiceTest, CrossJobSharingCutsRecomputeAcrossTenants) {
  constexpr int kFollowers = 3;

  storage::ThrottledDisk disk(FreshDir("xjob_shared"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 64LL * 1024 * 1024;
  std::vector<JobResult> shared_results;
  {
    RefreshService service(&disk, options);
    shared_results = RunSharedWorkload(&service, wl, kFollowers);
    for (const JobResult& r : shared_results) {
      ASSERT_TRUE(r.report.ok) << r.report.error;
    }
    // The seed job computed everything; every follower found the seed's
    // outputs resident and reused them instead of recomputing.
    EXPECT_EQ(shared_results[0].report.cross_job_hits, 0);
    for (std::size_t i = 1; i < shared_results.size(); ++i) {
      EXPECT_GT(shared_results[i].report.cross_job_hits, 0) << i;
      EXPECT_GT(shared_results[i].report.cross_job_bytes_saved, 0) << i;
    }
    EXPECT_GT(service.shared_catalog().hits(), 0);
    EXPECT_LE(service.shared_catalog().used_bytes(),
              service.shared_catalog().budget_bytes());

    // The gauges flow into the metrics registry.
    const MetricsSnapshot snapshot = service.metrics();
    EXPECT_GT(snapshot.aggregate.cross_job_hits, 0);
    EXPECT_GT(snapshot.aggregate.cross_job_bytes_saved, 0);
    EXPECT_GT(snapshot.aggregate.cross_job_hit_rate(), 0.0);
    EXPECT_EQ(snapshot.per_tenant.at("tenant0").cross_job_hits,
              shared_results[1].report.cross_job_hits);

    service.Shutdown();
    // Every run dropped its pins: nothing stays charged to any tenant.
    for (std::size_t i = 1; i < shared_results.size(); ++i) {
      EXPECT_EQ(service.broker().tenant_shared_bytes(
                    shared_results[i].tenant),
                0);
    }
    EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
  }

  // Followers reused the seed's outputs wholesale, so the shared run's
  // total recompute is strictly below the private-catalog count: each of
  // the 1 + kFollowers jobs computing every node.
  EXPECT_LT(RecomputedNodes(shared_results),
            (1 + kFollowers) * wl->graph.num_nodes());
}

TEST(JobMetricsTest, PerPriorityWaitsFromRegistrySeries) {
  obs::Registry registry;
  JobMetrics metrics(&registry);
  JobResult slow;
  slow.tenant = "t";
  slow.status = JobStatus::kOk;
  slow.queue_wait_seconds = 5.0;
  metrics.Resolve("t", /*priority=*/0)->Record(slow);
  JobResult fast = slow;
  fast.queue_wait_seconds = 0.5;
  const JobSeries* level3 = metrics.Resolve("t", /*priority=*/3);
  EXPECT_EQ(level3, metrics.Resolve("t", 3));  // resolved once
  level3->Record(fast);

  const MetricsSnapshot snapshot = metrics.Read();
  ASSERT_EQ(snapshot.per_priority.size(), 2u);
  EXPECT_EQ(snapshot.per_priority.at(0).jobs, 1);
  EXPECT_DOUBLE_EQ(snapshot.per_priority.at(0).max_wait_seconds, 5.0);
  EXPECT_DOUBLE_EQ(snapshot.per_priority.at(3).mean_wait_seconds(), 0.5);
  EXPECT_EQ(snapshot.aggregate.jobs_completed, 2);
  EXPECT_DOUBLE_EQ(snapshot.per_tenant.at("t").mean_queue_wait_seconds(),
                   2.75);
  // Latency quantiles are bucket estimates: within one sqrt(2) bucket.
  EXPECT_GE(snapshot.aggregate.p99_latency_seconds, 5.0 / std::sqrt(2.0));
  EXPECT_LE(snapshot.aggregate.p99_latency_seconds, 5.0 * std::sqrt(2.0));
  EXPECT_EQ(snapshot.queued_jobs, 0u);

  const std::string table = FormatTable(snapshot);
  EXPECT_NE(table.find("priority"), std::string::npos) << table;
  EXPECT_NE(table.find("max wait"), std::string::npos);
  EXPECT_NE(table.find("5.000s"), std::string::npos);
  EXPECT_NE(table.find("starvation"), std::string::npos);
}

TEST(RefreshServiceTest, StarvationGaugeCountsJobsNotYetAdmitted) {
  storage::ThrottledDisk disk(FreshDir("starve_queued"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  // The first job's first node hits a transient fault whose ~10 s retry
  // backoff holds the only worker, so the second job stays queued.
  fault::FaultInjector faults(/*seed=*/7);
  faults.AddRule(
      {fault::Site::kNodeExecute, "", 0.0, /*nth_hit=*/1, 1, true});
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &faults;
  options.retry_limit = 1;
  options.retry_backoff_ms = 10000.0;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  RefreshService::JobHandle running = service.SubmitJob(spec);
  while (faults.total_fires() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  spec.priority = 3;
  auto queued = service.Submit(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const MetricsSnapshot waiting = service.metrics();
  EXPECT_GE(waiting.starvation_seconds, 0.02);
  EXPECT_EQ(waiting.queued_jobs, 1u);
  EXPECT_NE(FormatTable(waiting).find("queued: 1 job(s)"),
            std::string::npos);

  EXPECT_TRUE(service.Cancel(running.job_id));
  EXPECT_EQ(running.future.get().status, JobStatus::kCancelled);
  EXPECT_EQ(queued.get().status, JobStatus::kOk);
  service.Shutdown();

  const MetricsSnapshot drained = service.metrics();
  EXPECT_EQ(drained.starvation_seconds, 0.0);
  EXPECT_EQ(drained.queued_jobs, 0u);
  ASSERT_EQ(drained.per_priority.size(), 2u);
  EXPECT_EQ(drained.per_priority.at(0).jobs, 1);
  EXPECT_EQ(drained.per_priority.at(3).jobs, 1);
  EXPECT_GE(drained.per_priority.at(3).max_wait_seconds, 0.02);
  // One job: its mean is its max (histogram sums keep microseconds).
  EXPECT_NEAR(drained.per_priority.at(3).mean_wait_seconds(),
              drained.per_priority.at(3).max_wait_seconds, 1e-6);
}

TEST(RefreshServiceTest, StarvationGaugeTracksLiveQueue) {
  storage::ThrottledDisk disk(FreshDir("starve"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "starve";
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) future.get();
  service.Shutdown();
  // Everything ran: the gauge must be clean.
  EXPECT_EQ(service.metrics().starvation_seconds, 0.0);
  EXPECT_EQ(service.metrics().queued_jobs, 0u);
}

}  // namespace
}  // namespace sc::service
