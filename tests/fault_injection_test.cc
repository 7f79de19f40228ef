#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "runtime/cancel.h"
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
  const std::string dir = testing::TempDir() + "/sc_fault_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Loads tiny TPC-DS data into `disk` and returns the Io1 workload with
/// observed execution metadata. Data generation is seeded, so every
/// disk prepared this way holds bit-identical base tables — the anchor
/// for the bit-identical-output assertions below.
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

/// Runs the workload once on a fresh fault-free service and returns the
/// disk directory, which then holds the reference MV bytes.
std::string BaselineRun(const std::string& tag) {
  const std::string dir = FreshDir(tag);
  storage::ThrottledDisk disk(dir, FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 2;
  RefreshService service(&disk, options);
  RefreshJobSpec spec;
  spec.workload = wl;
  const JobResult result = service.Submit(std::move(spec)).get();
  EXPECT_TRUE(result.report.ok) << result.report.error;
  EXPECT_EQ(result.status, JobStatus::kOk);
  service.Shutdown();
  return dir;
}

// ---------------------------------------------------------------------------
// Chaos: faults at every site, exact cleanup invariants
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, ChaosEverySiteInvariantsHold) {
  const std::string baseline_dir = BaselineRun("chaos_baseline");
  storage::ThrottledDisk baseline_disk(baseline_dir, FastDisk());

  const std::string dir = FreshDir("chaos");
  storage::ThrottledDisk disk(dir, FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  // A seeded failure schedule covering every injection site, a mix of
  // transient (retryable) and permanent rules. max_fires bounds each
  // rule so the tail of the run executes clean.
  fault::FaultInjector faults(/*seed=*/42);
  faults.AddRule({fault::Site::kDiskWrite, "", 0.05, 0, 6, true});
  faults.AddRule({fault::Site::kDiskWrite, "", 0.02, 0, 2, false});
  faults.AddRule({fault::Site::kDiskRead, "", 0.03, 0, 4, true});
  faults.AddRule({fault::Site::kCatalogPublish, "", 0.10, 0, 8, true});
  faults.AddRule({fault::Site::kBudgetGrant, "", 0.10, 0, 2, false});
  faults.AddRule({fault::Site::kNodeExecute, "", 0.03, 0, 6, true});
  faults.AddRule({fault::Site::kNodeExecute, "", 0.01, 0, 2, false});

  ServiceOptions options;
  options.num_workers = 4;
  options.max_intra_job_lanes = 2;
  options.global_budget = 24LL * 1024 * 1024;
  options.fault_injector = &faults;
  options.retry_limit = 2;
  options.retry_backoff_ms = 0.1;
  RefreshService service(&disk, options);

  constexpr int kTenants = 8;
  constexpr int kJobs = 24;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i % kTenants);
    spec.priority = i % 3;
    spec.requested_budget = options.global_budget / 2;
    futures.push_back(service.Submit(std::move(spec)));
  }

  int ok = 0;
  int failed = 0;
  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_EQ(result.report.ok, result.status == JobStatus::kOk);
    if (result.status == JobStatus::kOk) {
      ++ok;
    } else {
      ++failed;
      EXPECT_FALSE(result.report.error.empty());
    }
  }
  service.Shutdown();

  // Detach the injector: the verification reads below must see the
  // disk as it was left, not consume leftover fault-rule budget.
  disk.SetFaultInjector(nullptr);

  // The schedule actually fired, and the run survived it: with a
  // retry budget most jobs recover from the transient rules.
  EXPECT_GT(faults.total_fires(), 0);
  EXPECT_GT(ok, 0);

  // Exact-cleanup invariants: whatever mix of failures, cancels, and
  // successes the schedule produced, every grant was released, every
  // waiter drained, every shared pin dropped, and every reservation
  // returned.
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
  EXPECT_EQ(service.broker().waiting_count(), 0u);
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    EXPECT_EQ(service.broker().tenant_reserved_bytes(tenant), 0)
        << tenant;
    EXPECT_EQ(service.broker().tenant_shared_bytes(tenant), 0) << tenant;
  }
  EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);

  // No partial MV ever becomes visible: every table on the chaos disk
  // is bit-identical to the fault-free baseline (failed writes are
  // atomic — the previous complete version survives).
  for (graph::NodeId v = 0; v < wl->graph.num_nodes(); ++v) {
    const std::string& name = wl->graph.node(v).name;
    if (!disk.Exists(name)) continue;  // never successfully refreshed
    EXPECT_TRUE(disk.ReadTable(name) == baseline_disk.ReadTable(name))
        << name;
  }

  // The disposition taxonomy reached the metrics layer.
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_completed, ok);
  EXPECT_EQ(snapshot.aggregate.jobs_failed, failed);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, CancelQueuedJobReleasesEverything) {
  storage::ThrottledDisk disk(FreshDir("cancel_queued"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  ServiceOptions options;
  options.num_workers = 1;  // one worker: later submissions stay queued
  RefreshService service(&disk, options);

  RefreshJobSpec running;
  running.workload = wl;
  auto running_future = service.Submit(std::move(running));

  RefreshJobSpec queued;
  queued.workload = wl;
  RefreshService::JobHandle handle = service.SubmitJob(std::move(queued));
  EXPECT_TRUE(service.Cancel(handle.job_id));

  const JobResult cancelled = handle.future.get();
  EXPECT_EQ(cancelled.status, JobStatus::kCancelled);
  EXPECT_FALSE(cancelled.report.ok);
  EXPECT_TRUE(cancelled.report.cancelled);
  EXPECT_EQ(cancelled.report.error, runtime::kCancelledMessage);
  EXPECT_EQ(cancelled.granted_budget, 0);  // never admitted

  const JobResult first = running_future.get();
  EXPECT_EQ(first.status, JobStatus::kOk) << first.report.error;

  // Cancelling a finished job is a no-op, not an error.
  EXPECT_FALSE(service.Cancel(handle.job_id));
  EXPECT_FALSE(service.Cancel(999999));

  service.Shutdown();
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
  EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_cancelled, 1);
  EXPECT_NE(service.PrometheusText().find(
                "sc_jobs_total{status=\"cancelled\","
                "tenant=\"default\"} 1\n"),
            std::string::npos);
}

TEST(FaultInjectionTest, CancelMidExecutionStopsAtBoundary) {
  storage::ThrottledDisk disk(FreshDir("cancel_exec"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  // Deterministic mid-run window: the first node execution hits a
  // transient fault whose retry backoff parks the job for ~10 s. The
  // backoff polls the token every millisecond, so the Cancel() below
  // lands while the job is provably mid-execution.
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
  RefreshService::JobHandle handle = service.SubmitJob(std::move(spec));
  // Wait for the injected fault to fire (the job is then in backoff).
  while (faults.total_fires() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto cancel_at = std::chrono::steady_clock::now();
  EXPECT_TRUE(service.Cancel(handle.job_id));
  const JobResult result = handle.future.get();
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cancel_at)
          .count();

  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_TRUE(result.report.cancelled);
  EXPECT_EQ(result.report.cancel_reason, runtime::CancelReason::kCancelled);
  // Responsive cancellation: the job aborted its 10 s backoff at the
  // next poll, not after it.
  EXPECT_LT(latency, 5.0);

  service.Shutdown();
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
  EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
  EXPECT_EQ(service.broker().tenant_shared_bytes("default"), 0);
}

// ---------------------------------------------------------------------------
// Deadlines and shedding
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DeadlineExpiredJobTimesOut) {
  storage::ThrottledDisk disk(FreshDir("deadline"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  ServiceOptions options;
  options.num_workers = 1;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.deadline_seconds = 1e-6;  // expired by the first token probe
  const JobResult result = service.Submit(std::move(spec)).get();

  EXPECT_EQ(result.status, JobStatus::kTimeout);
  EXPECT_FALSE(result.report.ok);
  EXPECT_TRUE(result.report.cancelled);
  EXPECT_EQ(result.report.cancel_reason, runtime::CancelReason::kDeadline);
  EXPECT_EQ(result.report.error, runtime::kDeadlineMessage);

  service.Shutdown();
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_timeout, 1);
  EXPECT_NE(service.PrometheusText().find(
                "sc_jobs_total{status=\"timeout\","
                "tenant=\"default\"} 1\n"),
            std::string::npos);
}

TEST(FaultInjectionTest, QueueWaitSheddingDropsStaleJobs) {
  storage::ThrottledDisk disk(FreshDir("shed"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  ServiceOptions options;
  options.num_workers = 1;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.max_queue_wait_seconds = 1e-9;  // any real queue wait exceeds it
  const JobResult result = service.Submit(std::move(spec)).get();

  EXPECT_EQ(result.status, JobStatus::kShed);
  EXPECT_FALSE(result.report.ok);
  EXPECT_NE(result.report.error.find("shed"), std::string::npos);
  EXPECT_FALSE(result.report.cancelled);  // a service decision, not a
                                          // token cancel

  service.Shutdown();
  const MetricsSnapshot snapshot = service.metrics();
  EXPECT_EQ(snapshot.aggregate.jobs_shed, 1);
  EXPECT_NE(service.PrometheusText().find(
                "sc_jobs_total{status=\"shed\","
                "tenant=\"default\"} 1\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Retry with backoff: transient faults, bit-identical recovery
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, TransientFaultWithRetriesIsBitIdentical) {
  const std::string baseline_dir = BaselineRun("retry_baseline");
  storage::ThrottledDisk baseline_disk(baseline_dir, FastDisk());

  const std::string dir = FreshDir("retry");
  storage::ThrottledDisk disk(dir, FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  // One transient fault on the first MV write and one on the first node
  // execution; the per-node retry budget absorbs both.
  fault::FaultInjector faults(/*seed=*/3);
  faults.AddRule(
      {fault::Site::kDiskWrite, "", 0.0, /*nth_hit=*/1, 1, true});
  faults.AddRule(
      {fault::Site::kNodeExecute, "", 0.0, /*nth_hit=*/1, 1, true});

  ServiceOptions options;
  options.num_workers = 2;
  options.fault_injector = &faults;
  options.retry_limit = 2;
  options.retry_backoff_ms = 0.1;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  const JobResult result = service.Submit(std::move(spec)).get();

  EXPECT_EQ(result.status, JobStatus::kOk) << result.report.error;
  EXPECT_EQ(faults.total_fires(), 2);
  EXPECT_GT(result.report.node_retries, 0);
  EXPECT_NE(service.PrometheusText().find(
                "sc_job_retries_total{tenant=\"default\"} " +
                std::to_string(result.report.node_retries) + "\n"),
            std::string::npos);
  service.Shutdown();
  disk.SetFaultInjector(nullptr);

  // Recovery is exact: every MV matches the fault-free baseline bit for
  // bit.
  for (graph::NodeId v = 0; v < wl->graph.num_nodes(); ++v) {
    const std::string& name = wl->graph.node(v).name;
    EXPECT_TRUE(disk.ReadTable(name) == baseline_disk.ReadTable(name))
        << name;
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation under overload
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, OverloadDegradesBudgetRequests) {
  storage::ThrottledDisk disk(FreshDir("overload"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  ServiceOptions options;
  options.num_workers = 1;  // pile the queue behind one worker
  options.global_budget = 16LL * 1024 * 1024;
  options.overload_queue_depth = 2;
  RefreshService service(&disk, options);

  constexpr int kJobs = 8;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.requested_budget = options.global_budget;
    futures.push_back(service.Submit(std::move(spec)));
  }

  bool degraded = false;
  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_EQ(result.status, JobStatus::kOk) << result.report.error;
    // A degraded job was granted at most the scaled request; the run
    // then simply optimized at the granted budget.
    degraded |= result.granted_budget <= options.global_budget / 2;
  }
  EXPECT_TRUE(degraded);
  EXPECT_GT(service.registry().Snapshot().at(
                "sc_jobs_degraded_total{tenant=\"default\"}"),
            0.0);
  service.Shutdown();
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
}

}  // namespace
}  // namespace sc::service
