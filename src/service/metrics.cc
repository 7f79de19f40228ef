#include "service/metrics.h"

#include <iterator>
#include <sstream>
#include <vector>

#include "common/bytes.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "service/service.h"

namespace sc::service {

namespace {

/// The TenantMetrics field each JobStatus is read into besides
/// jobs_failed, which counts every non-ok status.
constexpr std::int64_t TenantMetrics::*kStatusFields[] = {
    &TenantMetrics::jobs_completed, nullptr, &TenantMetrics::jobs_cancelled,
    &TenantMetrics::jobs_timeout, &TenantMetrics::jobs_shed};
static_assert(std::size(kStatusFields) == JobSeries::kStatuses);

/// Per-tenant counters: series name, help, and the TenantMetrics field
/// the series is read into. JobSeries::Record adds in this order.
struct TenantCounter {
  const char* name;
  const char* help;
  std::int64_t TenantMetrics::*field;
};

const TenantCounter kTenantCounters[] = {
    {"sc_job_requested_bytes_total", "Memory-catalog bytes jobs asked for",
     &TenantMetrics::bytes_requested},
    {"sc_job_granted_bytes_total", "Memory-catalog bytes granted to jobs",
     &TenantMetrics::bytes_granted},
    {"sc_job_returned_bytes_total", "Granted bytes handed back mid-run",
     &TenantMetrics::bytes_returned},
    {"sc_job_catalog_hits_total", "Input resolutions served from memory",
     &TenantMetrics::catalog_hits},
    {"sc_job_catalog_misses_total", "Input resolutions read from disk",
     &TenantMetrics::catalog_misses},
    {"sc_job_cross_job_hits_total", "Resolutions served by other jobs",
     &TenantMetrics::cross_job_hits},
    {"sc_job_cross_job_saved_bytes_total", "Bytes cross-job hits saved",
     &TenantMetrics::cross_job_bytes_saved},
    {"sc_job_plan_cache_hits_total", "Jobs that ran without optimizing",
     &TenantMetrics::plan_cache_hits},
    {"sc_job_reoptimized_total", "Jobs re-optimized at grant or residency",
     &TenantMetrics::reoptimizations},
    {"sc_job_retries_total", "Per-node retries of transient failures",
     &TenantMetrics::node_retries},
};
static_assert(std::size(kTenantCounters) == JobSeries::kCounters);

}  // namespace

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kShed: return "shed";
  }
  return "failed";
}

void JobSeries::Record(const JobResult& result) const {
  jobs[static_cast<int>(result.status)]->Increment();
  const runtime::RunReport& run = result.report;
  const std::int64_t amounts[kCounters] = {  // kTenantCounters order
      result.requested_budget, result.granted_budget, result.returned_budget,
      run.catalog_hits, run.catalog_misses, run.cross_job_hits,
      run.cross_job_bytes_saved, result.plan_cache_hit, result.reoptimized,
      run.node_retries};
  for (int i = 0; i < kCounters; ++i) {
    if (amounts[i] != 0) counters[i]->Increment(amounts[i]);
  }
  latency->Observe(result.queue_wait_seconds + result.exec_seconds);
  queue_wait->Observe(result.queue_wait_seconds);
  max_queue_wait->SetMax(result.queue_wait_seconds);
  exec->Observe(result.exec_seconds);
}

const JobSeries* JobMetrics::Resolve(const std::string& tenant,
                                     int priority) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = series_.try_emplace({tenant, priority});
  JobSeries& s = it->second;
  if (!inserted) return &s;
  const obs::Labels by_tenant = {{"tenant", tenant}};
  const std::string level = std::to_string(priority);
  for (int status = 0; status < JobSeries::kStatuses; ++status) {
    s.jobs[status] = registry_->GetCounter(
        "sc_jobs_total", "Finished refresh jobs",
        {{"tenant", tenant},
         {"status", JobStatusName(static_cast<JobStatus>(status))}});
  }
  for (int i = 0; i < JobSeries::kCounters; ++i) {
    s.counters[i] = registry_->GetCounter(
        kTenantCounters[i].name, kTenantCounters[i].help, by_tenant);
  }
  s.degraded = registry_->GetCounter(
      "sc_jobs_degraded_total",
      "Jobs admitted at a reduced budget under overload", by_tenant);
  s.latency = registry_->GetHistogram(
      "sc_job_latency_seconds", "Queue wait + execution per job", by_tenant);
  s.queue_wait = registry_->GetHistogram(
      "sc_job_queue_wait_seconds",
      "Admission-queue + budget-arbitration wait per job",
      {{"tenant", tenant}, {"priority", level}});
  s.max_queue_wait = registry_->GetGauge(
      "sc_job_queue_wait_max_seconds", "Longest queue wait of a finished job",
      {{"priority", level}});
  s.exec = registry_->GetHistogram(
      "sc_job_exec_seconds",
      "Execution wall time per job (admission to finish)");
  return &s;
}

MetricsSnapshot JobMetrics::Read() const {
  MetricsSnapshot snapshot;
  auto add = [&snapshot](TenantMetrics* m,
                         std::int64_t TenantMetrics::*field,
                         const obs::Counter* counter) {
    const std::int64_t n = counter->value();
    m->*field += n;
    snapshot.aggregate.*field += n;
  };
  // Latency quantiles per tenant, and for the aggregate over the bucket
  // counts summed across tenants (all share the default bounds).
  const std::vector<double> bounds = obs::Histogram::LatencyBounds();
  std::vector<std::int64_t> all(bounds.size() + 1);
  auto quantiles = [&bounds](const std::vector<std::int64_t>& cumulative,
                             TenantMetrics* m) {
    m->p50_latency_seconds = obs::HistogramQuantile(0.5, bounds, cumulative);
    m->p99_latency_seconds = obs::HistogramQuantile(0.99, bounds, cumulative);
  };
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, s] : series_) {
    const auto& [tenant, priority] = key;
    const bool first_of_tenant = snapshot.per_tenant.count(tenant) == 0;
    TenantMetrics* m = &snapshot.per_tenant[tenant];
    const double wait = s.queue_wait->sum();
    m->total_queue_wait_seconds += wait;
    snapshot.aggregate.total_queue_wait_seconds += wait;
    PriorityWaitStats& level = snapshot.per_priority[priority];
    level.jobs += s.queue_wait->count();
    level.total_wait_seconds += wait;
    level.max_wait_seconds = s.max_queue_wait->value();
    // The remaining series are per tenant: shared by its priorities.
    if (!first_of_tenant) continue;
    for (int status = 0; status < JobSeries::kStatuses; ++status) {
      if (status != static_cast<int>(JobStatus::kOk)) {
        add(m, &TenantMetrics::jobs_failed, s.jobs[status]);
      }
      const auto field = kStatusFields[status];
      if (field != nullptr) add(m, field, s.jobs[status]);
    }
    for (int i = 0; i < JobSeries::kCounters; ++i) {
      add(m, kTenantCounters[i].field, s.counters[i]);
    }
    std::vector<std::int64_t> cumulative(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      cumulative[i] = s.latency->cumulative(i);
      all[i] += cumulative[i];
    }
    quantiles(cumulative, m);
  }
  quantiles(all, &snapshot.aggregate);
  return snapshot;
}

std::string FormatTable(const MetricsSnapshot& snapshot) {
  TablePrinter table({"tenant", "jobs", "failed", "cancel", "timeout",
                      "shed", "avg wait", "p50", "p99", "catalog hit%",
                      "xjob hit%", "xjob saved", "plan cache", "reopt"});
  auto add = [&](const std::string& name, const TenantMetrics& m) {
    table.AddRow({name, std::to_string(m.jobs_total()),
                  std::to_string(m.jobs_failed),
                  std::to_string(m.jobs_cancelled),
                  std::to_string(m.jobs_timeout),
                  std::to_string(m.jobs_shed),
                  StrFormat("%.3fs", m.mean_queue_wait_seconds()),
                  StrFormat("%.3fs", m.p50_latency_seconds),
                  StrFormat("%.3fs", m.p99_latency_seconds),
                  StrFormat("%.1f", 100.0 * m.catalog_hit_rate()),
                  StrFormat("%.1f", 100.0 * m.cross_job_hit_rate()),
                  FormatBytes(m.cross_job_bytes_saved),
                  std::to_string(m.plan_cache_hits),
                  std::to_string(m.reoptimizations)});
  };
  for (const auto& [tenant, metrics] : snapshot.per_tenant) {
    add(tenant, metrics);
  }
  table.AddSeparator();
  add("(all)", snapshot.aggregate);

  std::ostringstream out;
  out << table.ToString();
  if (!snapshot.per_priority.empty()) {
    TablePrinter priorities(
        {"priority", "jobs", "avg wait", "max wait"});
    for (const auto& [priority, waits] : snapshot.per_priority) {
      priorities.AddRow({std::to_string(priority),
                         std::to_string(waits.jobs),
                         StrFormat("%.3fs", waits.mean_wait_seconds()),
                         StrFormat("%.3fs", waits.max_wait_seconds)});
    }
    out << "\n" << priorities.ToString();
  }
  out << StrFormat("\nqueued: %zu job(s), starvation %.3fs\n",
                   snapshot.queued_jobs, snapshot.starvation_seconds);
  return out.str();
}

}  // namespace sc::service
