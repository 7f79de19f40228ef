#ifndef SC_SERVICE_SERVICE_H_
#define SC_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/alternating.h"
#include "runtime/cancel.h"
#include "runtime/controller.h"
#include "runtime/lane_pool.h"
#include "service/budget_broker.h"
#include "service/metrics.h"
#include "service/parallelism_broker.h"
#include "service/plan_cache.h"
#include "storage/shared_catalog.h"
#include "storage/throttled_disk.h"
#include "workload/workloads.h"

namespace sc::service {

struct ServiceOptions {
  /// Total execution-thread budget of the service. With
  /// max_intra_job_lanes == 1 (default) this is exactly the number of
  /// worker threads, each driving its own runtime::Controller — the
  /// pre-parallel behaviour. With L > 1 lanes the ParallelismBroker
  /// splits the budget into num_workers / L inter-job workers whose jobs
  /// each lease up to L intra-job lanes, so enabling DAG-parallel
  /// execution never multiplies the service's thread count.
  int num_workers = 4;
  /// Upper bound on one job's intra-job execution lanes (Controller
  /// max_parallel_nodes). Jobs may borrow idle workers' lanes up to this
  /// cap. With lanes > 1 the service also turns on the optimizer's
  /// stage-aware ordering post-pass (opt::WidenStages) so cached plans
  /// feed the lanes as wide an early antichain as peak memory allows.
  int max_intra_job_lanes = 1;
  /// Global Memory-Catalog bytes shared by all in-flight jobs.
  std::int64_t global_budget = 256LL * 1024 * 1024;
  /// SharedCatalog spill tier: when non-empty, entries evicted under
  /// budget pressure are demoted to compressed SCC1 files in this
  /// directory and lazily refilled on their next Pin (counted as
  /// spill_refills / cross-job hits, not recompute). Empty = disabled
  /// (evictions drop entries, the pre-spill behaviour).
  std::string spill_directory;
  /// Cap on total compressed spill bytes on disk; <= 0 = unbounded.
  std::int64_t spill_max_bytes = 0;
  /// Durable spill tier with crash recovery (storage::SpillOptions::
  /// recover): spill files and the manifest journal survive service
  /// shutdown, and a fresh service pointed at the same spill_directory
  /// re-registers every surviving entry as warm spilled residency —
  /// cross-job hits resume with zero recompute. Damaged files are
  /// detected (checksums), counted, and never served; orphan files are
  /// removed at startup. Off (default) treats the directory as scratch.
  bool spill_recover = false;
  /// Content-fingerprint salt (a data epoch): bump it to invalidate
  /// every cross-job match, e.g. after base tables change.
  std::uint64_t shared_epoch = 0;
  /// Observability trace recorder (obs::TraceRecorder) every job's
  /// lifecycle spans are emitted into: queued / wait-budget / execute on
  /// the worker tracks, budget grant / return / release instants,
  /// plan-cache lookups, and — via the Controller — per-node execute /
  /// publish / materialize spans on the lane tracks. Not owned; must
  /// outlive the service; export it after Shutdown with
  /// obs::WriteChromeTraceFile. Null (the default) disables tracing
  /// entirely: every boundary costs one branch.
  obs::TraceRecorder* trace = nullptr;
  /// Deterministic fault injection (tests / chaos CI): wired into the
  /// disk, the shared catalog, the budget broker, and every job's
  /// Controller. Not owned; must outlive the service. Null (default)
  /// compiles every injection point down to one null check.
  fault::FaultInjector* fault_injector = nullptr;
  /// Per-node retry budget for transient failures, forwarded to every
  /// job's Controller (ControllerOptions::retry_limit). 0 = fail fast.
  int retry_limit = 0;
  /// Base backoff before the first retry; doubles per attempt, capped at
  /// 64x (ControllerOptions::retry_backoff_ms).
  double retry_backoff_ms = 1.0;
  /// Graceful degradation under overload: when the admission queue is
  /// deeper than this at pickup time, the job asks the broker for half
  /// its budget request — smaller grants admit faster and free memory
  /// for the backlog; the existing partial-grant path re-optimizes the
  /// plan at the reduced budget. 0 (default) disables degradation.
  std::size_t overload_queue_depth = 0;
};

/// One refresh job: an annotated workload (speedup scores present, e.g.
/// via Controller::ProfileAndAnnotate or workload::AnnotateWorkload)
/// plus tenant identity and scheduling hints. The workload is shared —
/// submitting the same workload from many tenants copies nothing.
///
/// MV node names are warehouse table names and form one global
/// namespace on the service's disk (the paper's Hive-warehouse model):
/// two jobs naming the same MV refresh the same table. Workloads that
/// must not share state must use distinct node names.
struct RefreshJobSpec {
  std::shared_ptr<const workload::MvWorkload> workload;
  std::string tenant = "default";
  /// Higher runs earlier; admission and budget arbitration are both
  /// priority-aware.
  int priority = 0;
  /// Memory-Catalog bytes this job asks the broker for. 0 = the whole
  /// global budget (the broker scales it down under load). The grant may
  /// be smaller; the plan is then re-optimized at the granted budget.
  std::int64_t requested_budget = 0;
  /// End-to-end deadline in seconds, relative to Submit. Once it expires
  /// the job is cancelled wherever it is — queued, blocked in budget
  /// arbitration, or executing (stopped at the next node / morsel /
  /// materialize boundary) — and finishes with JobStatus::kTimeout.
  /// 0 (default) = no deadline.
  double deadline_seconds = 0.0;
  /// Shedding bound: a job still queued after this many seconds is
  /// dropped at pickup with JobStatus::kShed instead of being run late.
  /// 0 (default) = never shed.
  double max_queue_wait_seconds = 0.0;
};

struct JobResult {
  std::uint64_t job_id = 0;
  std::string tenant;
  /// Terminal disposition (ok / failed / cancelled / timeout / shed);
  /// report.ok == (status == JobStatus::kOk).
  JobStatus status = JobStatus::kFailed;
  runtime::RunReport report;
  std::int64_t requested_budget = 0;
  std::int64_t granted_budget = 0;
  /// Bytes handed back to the broker before the run finished (grant
  /// renegotiation; the run executed at granted_budget - returned_budget).
  std::int64_t returned_budget = 0;
  /// Intra-job execution lanes leased from the ParallelismBroker.
  int lanes = 1;
  double queue_wait_seconds = 0.0;
  double exec_seconds = 0.0;
  bool plan_cache_hit = false;
  bool reoptimized = false;
};

/// The serving layer (ROADMAP north star): a concurrent, multi-tenant
/// refresh engine on top of the paper's single-run S/C design.
///
///   Submit(job) -> admission queue -> worker -> BudgetBroker::Acquire
///     -> PlanCache lookup / opt::AlternatingOptimize at the granted
///        budget -> runtime::Controller::RunWithBudget -> Release
///
/// N workers drive independent Controllers against one shared
/// ThrottledDisk; the BudgetBroker guarantees that the sum of all
/// concurrent Memory-Catalog reservations never exceeds the global
/// budget, with per-tenant quotas and priority-aware admission. Jobs
/// whose flagged set cannot be funded at their granted budget are
/// re-optimized before execution, never rejected. With
/// max_intra_job_lanes > 1, each job additionally leases intra-job
/// execution lanes from a ParallelismBroker and runs its DAG on the
/// Controller's stage-scheduled parallel runtime — executing on the
/// service-wide persistent LanePool, so back-to-back jobs reuse lane
/// threads instead of constructing a pool per run; once the plan is
/// known, budget beyond the plan's needs is handed back to the
/// BudgetBroker early (grant renegotiation).
///
/// Every worker's runs are routed through one content-keyed
/// storage::SharedCatalog (budget = global_budget): tenants refreshing
/// the same content read — and reuse outright — each other's resident
/// outputs instead of recomputing them, the sharing-aware pre-pass
/// re-costs already-resident nodes before planning, and pinned cross-job
/// bytes are charged to the reading tenant's quota once per content key.
class RefreshService {
 public:
  RefreshService(storage::ThrottledDisk* disk, ServiceOptions options);
  ~RefreshService();

  RefreshService(const RefreshService&) = delete;
  RefreshService& operator=(const RefreshService&) = delete;

  /// Enqueues a job; the future resolves when the job finishes (check
  /// result.status — execution failures are reported, not thrown).
  /// Throws std::invalid_argument for a null workload and
  /// std::runtime_error after Shutdown.
  std::future<JobResult> Submit(RefreshJobSpec spec);

  /// Submit variant that also returns the job id, so the caller can
  /// Cancel() the job later.
  struct JobHandle {
    std::uint64_t job_id = 0;
    std::future<JobResult> future;
  };
  JobHandle SubmitJob(RefreshJobSpec spec);

  /// Cooperatively cancels a submitted job. Queued jobs finish with
  /// JobStatus::kCancelled without running; a job blocked in budget
  /// arbitration abandons its wait; an executing job stops at the next
  /// stage-dispatch / node / morsel-claim / materialize boundary, with
  /// every grant, lane lease, shared pin, and reservation released and
  /// no partial MV published. Returns false when the job already
  /// finished (or was never submitted); cancellation of a finished job
  /// is a no-op, not an error.
  bool Cancel(std::uint64_t job_id);

  /// Stops accepting work. With `drain` (default) runs every queued job
  /// to completion first; otherwise pending jobs fail with a "service
  /// shutting down" report. Idempotent; also called by the destructor.
  void Shutdown(bool drain = true);

  void SetTenantQuota(const std::string& tenant, std::int64_t quota_bytes);

  /// Per-tenant / per-priority view over the job series in registry():
  /// latency quantiles, waits, hit rates and the starvation gauge.
  MetricsSnapshot metrics() const;
  const BudgetBroker& broker() const { return broker_; }
  const ParallelismBroker& lanes_broker() const { return lanes_broker_; }
  /// The service-wide executor pool every job's parallel run borrows its
  /// lanes from (thread-start counter shows steady-state reuse).
  const runtime::LanePool& lane_pool() const { return lane_pool_; }
  /// How the thread budget was split (workers actually spawned).
  const ParallelismSplit& parallelism() const { return split_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }
  /// The cross-job shared residency layer every worker's runs publish to
  /// and read from.
  const storage::SharedCatalog& shared_catalog() const {
    return shared_catalog_;
  }
  std::size_t queue_depth() const;
  const ServiceOptions& options() const { return options_; }
  /// The service's only metrics store: per-tenant job counters and
  /// latency / wait histograms recorded once per finished job, plus
  /// callback gauges mirroring the LanePool, SharedCatalog, BudgetBroker,
  /// and PlanCache counters. See README "Observability" for the full
  /// metric-name table.
  const obs::Registry& registry() const { return registry_; }
  obs::Registry& registry() { return registry_; }
  /// Prometheus text exposition of registry().
  std::string PrometheusText() const {
    return registry_.ToPrometheusText();
  }

 private:
  struct Job {
    std::uint64_t id = 0;
    RefreshJobSpec spec;
    std::promise<JobResult> promise;
    double submit_seconds = 0.0;
    /// Set once the budget grant is held; lets FailJob split queue wait
    /// from execution time for jobs that die mid-run. 0 while the job
    /// waits, which is what the starvation gauge scans for.
    std::atomic<double> admit_seconds{0.0};
    std::uint64_t fingerprint = 0;
    /// The registry series this job's outcome is counted in, resolved at
    /// Submit.
    const JobSeries* series = nullptr;
    /// Cooperative cancellation flag shared by Cancel(), the deadline,
    /// and the job's Controller. Lives as long as the Job (shared_ptr),
    /// so a late Cancel() after completion touches valid memory.
    runtime::CancelToken cancel;
  };
  struct QueueOrder {
    bool operator()(const std::shared_ptr<Job>& a,
                    const std::shared_ptr<Job>& b) const {
      if (a->spec.priority != b->spec.priority) {
        return a->spec.priority < b->spec.priority;  // max-heap on priority
      }
      return a->id > b->id;  // FIFO within a priority level
    }
  };

  void WorkerLoop(int worker_index);
  JobResult Execute(Job& job);
  /// Common terminal bookkeeping for Execute paths: derives
  /// JobResult::status from the report, emits the trace tail, and
  /// records the job in its registry series.
  /// `held_grant` gates the budget-release trace instant (false on the
  /// cancelled-while-waiting path, where no grant was ever held).
  JobResult FinishJob(Job& job, JobResult result, double exec_start,
                      const std::string& trace_args, bool held_grant);
  /// Resolves `job`'s promise with a failed report and records the
  /// failure in the job's registry series.
  void FailJob(Job& job, const std::string& error,
               JobStatus status = JobStatus::kFailed);
  /// Drops `job.id` from the cancellation registry (terminal states
  /// only).
  void ForgetJob(std::uint64_t job_id);
  /// Wires the callback gauges mirroring LanePool / SharedCatalog /
  /// BudgetBroker / PlanCache monitoring counters into registry_.
  void RegisterComponentGauges();
  /// Longest wait among active jobs not yet admitted
  /// (sc_starvation_seconds).
  double StarvationSeconds() const;

  storage::ThrottledDisk* disk_;
  const ServiceOptions options_;
  const ParallelismSplit split_;
  BudgetBroker broker_;
  ParallelismBroker lanes_broker_;
  runtime::LanePool lane_pool_;
  PlanCache plan_cache_;
  storage::SharedCatalog shared_catalog_;
  /// Declared after every component it mirrors: its callback gauges read
  /// lane_pool_ / shared_catalog_ / broker_ / plan_cache_, so it must be
  /// destroyed first.
  obs::Registry registry_;
  JobMetrics job_metrics_{&registry_};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<std::shared_ptr<Job>,
                      std::vector<std::shared_ptr<Job>>, QueueOrder>
      queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t next_job_id_ = 1;
  /// Cancellation registry: every job from Submit until its promise is
  /// resolved. Cancel() flips the token here and pokes the broker.
  std::map<std::uint64_t, std::shared_ptr<Job>> active_jobs_;
  std::vector<std::thread> workers_;
};

}  // namespace sc::service

#endif  // SC_SERVICE_SERVICE_H_
