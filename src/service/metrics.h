#ifndef SC_SERVICE_METRICS_H_
#define SC_SERVICE_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/registry.h"

namespace sc::service {

/// Terminal disposition of one job. Replaces string matching on
/// report.error as the programmatic failure taxonomy: `kFailed` is a
/// genuine execution error, while the last three are service decisions
/// (caller cancel, deadline expiry, queue-wait shedding) that callers
/// routinely branch on.
enum class JobStatus {
  kOk = 0,
  kFailed = 1,
  kCancelled = 2,  // RefreshService::Cancel or token cancel
  kTimeout = 3,    // RefreshJobSpec::deadline_seconds expired
  kShed = 4,       // RefreshJobSpec::max_queue_wait_seconds expired queued
};

/// Stable lowercase label ("ok", "failed", "cancelled", "timeout",
/// "shed") used as the `status` label of sc_jobs_total.
const char* JobStatusName(JobStatus status);

struct JobResult;

/// One tenant's (or the whole service's) view of its job series; see
/// JobMetrics::Read.
struct TenantMetrics {
  std::int64_t jobs_completed = 0;
  /// Every non-ok job (errors + cancelled + timeout + shed), preserving
  /// the pre-fault-tolerance meaning of "failed".
  std::int64_t jobs_failed = 0;
  /// Disposition breakdown of jobs_failed (disjoint subsets).
  std::int64_t jobs_cancelled = 0;
  std::int64_t jobs_timeout = 0;
  std::int64_t jobs_shed = 0;
  double total_queue_wait_seconds = 0.0;
  std::int64_t bytes_requested = 0;
  std::int64_t bytes_granted = 0;
  /// Bytes handed back mid-run via BudgetBroker::ReturnUnused.
  std::int64_t bytes_returned = 0;
  std::int64_t catalog_hits = 0;
  std::int64_t catalog_misses = 0;
  /// Resolutions served from another job's shared outputs, and the
  /// disk/recompute bytes that saved.
  std::int64_t cross_job_hits = 0;
  std::int64_t cross_job_bytes_saved = 0;
  std::int64_t plan_cache_hits = 0;
  std::int64_t reoptimizations = 0;
  std::int64_t node_retries = 0;
  /// Queue wait + execution, interpolated in sc_job_latency_seconds.
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;

  std::int64_t jobs_total() const { return jobs_completed + jobs_failed; }
  double mean_queue_wait_seconds() const {
    return jobs_total() == 0 ? 0.0
                             : total_queue_wait_seconds / jobs_total();
  }
  double catalog_hit_rate() const {
    const std::int64_t total = catalog_hits + catalog_misses;
    return total == 0 ? 0.0 : static_cast<double>(catalog_hits) / total;
  }
  /// Fraction of input resolutions served cross-tenant from the shared
  /// layer (0 when the service resolved nothing).
  double cross_job_hit_rate() const {
    const std::int64_t total = catalog_hits + catalog_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cross_job_hits) / total;
  }
};

/// Queue-wait aggregates for one priority level (across tenants). Queue
/// wait covers admission queue *and* budget arbitration: the job waits
/// until it holds everything it needs to run.
struct PriorityWaitStats {
  std::int64_t jobs = 0;
  double total_wait_seconds = 0.0;
  double max_wait_seconds = 0.0;

  double mean_wait_seconds() const {
    return jobs == 0 ? 0.0 : total_wait_seconds / jobs;
  }
};

struct MetricsSnapshot {
  TenantMetrics aggregate;
  std::map<std::string, TenantMetrics> per_tenant;
  std::map<int, PriorityWaitStats> per_priority;
  /// sc_starvation_seconds and sc_queue_depth (RefreshService::metrics).
  double starvation_seconds = 0.0;
  std::size_t queued_jobs = 0;
};

/// The registry series one (tenant, priority) pair's finished jobs are
/// counted in. Pointers are owned by the registry and stable.
struct JobSeries {
  static constexpr int kStatuses = 5;
  static constexpr int kCounters = 10;
  obs::Counter* jobs[kStatuses] = {};  // sc_jobs_total by JobStatus
  obs::Counter* counters[kCounters] = {};  // per-tenant *_total counters
  obs::Counter* degraded = nullptr;        // sc_jobs_degraded_total
  obs::Histogram* latency = nullptr;       // sc_job_latency_seconds
  obs::Histogram* queue_wait = nullptr;    // sc_job_queue_wait_seconds
  obs::Gauge* max_queue_wait = nullptr;    // sc_job_queue_wait_max_seconds
  obs::Histogram* exec = nullptr;          // sc_job_exec_seconds

  /// Counts one finished (or failed) job: relaxed atomic bumps only.
  void Record(const JobResult& result) const;
};

/// The service's job-outcome series: resolved in `registry` once per
/// (tenant, priority) pair, so recording a job renders no labels and
/// takes no registry lock, and read back as a MetricsSnapshot.
class JobMetrics {
 public:
  explicit JobMetrics(obs::Registry* registry) : registry_(registry) {}

  const JobSeries* Resolve(const std::string& tenant, int priority);
  /// Per-tenant and per-priority view of the series (queue fields 0);
  /// p50/p99 are interpolated within a latency bucket.
  MetricsSnapshot Read() const;

 private:
  obs::Registry* const registry_;
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, int>, JobSeries> series_;
};

/// Aligned per-tenant table (plus per-priority waits and the starvation
/// gauge) for operators.
std::string FormatTable(const MetricsSnapshot& snapshot);

}  // namespace sc::service

#endif  // SC_SERVICE_METRICS_H_
