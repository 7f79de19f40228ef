#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "graph/topo.h"
#include "opt/memory_usage.h"
#include "opt/optimizer.h"
#include "opt/selectors.h"
#include "service/service.h"
#include "sim/lru_cache.h"
#include "sim/refresh_sim.h"
#include "workload/datagen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sc::StrFormat;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per run: setup_s is their median and the last one is timed.
constexpr int kSetupReps = 3;

double Now() { return sc::MonotonicSeconds(); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile that still has at least ten samples above it
/// (nearest rank over the sorted samples); the maximum when there are
/// fewer than eleven samples.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = n > 10 ? n - 11 : n - 1;
  tail.value = values[rank];
  tail.percentile =
      n > 1 ? 100.0 * static_cast<double>(rank) / static_cast<double>(n - 1)
            : 100.0;
  return tail;
}

double SafeDiv(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

std::string JsonNumber(double value) {
  return std::isfinite(value) ? StrFormat("%.12g", value) : "0";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Records one span of the benchmark's own on the calling thread's track
/// when the recorder is set and enabled.
class Span {
 public:
  Span(sc::obs::TraceRecorder* trace, const char* category, std::string name,
       std::string args = {})
      : trace_(trace),
        category_(category),
        name_(std::move(name)),
        args_(std::move(args)),
        start_(Now()) {}
  ~Span() {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Complete(category_, std::move(name_), start_, Now() - start_,
                       std::move(args_));
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  sc::obs::TraceRecorder* trace_;
  const char* category_;
  std::string name_;
  std::string args_;
  double start_;
};

// ---------------------------------------------------------------------------
// Metric catalog
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"refresh_p50_s", "s"},   {"refresh_tail_s", "s"},
      {"refreshes_per_s", "1/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

/// Every per-layer metric, emitted by every traced run. A metric of a
/// layer the workload does not exercise reads 0 (see README.md).
const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"opt.optimize_s", "s"},
      {"opt.flagged_frac", "frac"},
      {"opt.sc_speedup", "x"},
      {"opt.peak_pred_error_frac", "frac"},
      {"opt.noopt_refresh_s", "s"},
      {"opt.random_refresh_s", "s"},
      {"opt.greedy_refresh_s", "s"},
      {"opt.ratio_refresh_s", "s"},
      {"opt.sc_refresh_s", "s"},
      {"opt.flagged_nodes", "count"},
      {"sim.makespan_error_frac", "frac"},
      {"sim.lru_refresh_s", "s"},
      {"runtime.read_s", "s"},
      {"runtime.write_block_s", "s"},
      {"runtime.compute_s", "s"},
      {"runtime.catalog_hit_rate", "frac"},
      {"runtime.catalog_hits", "count"},
      {"runtime.catalog_misses", "count"},
      {"runtime.peak_catalog_mb", "MiB"},
      {"runtime.peak_catalog_bytes", "bytes"},
      {"runtime.lane_util", "frac"},
      {"runtime.morsel_tasks", "count"},
      {"runtime.inlined_nodes", "count"},
      {"runtime.reserve_denials", "count"},
      {"engine.mrows_per_s", "Mrows/s"},
      {"storage.disk_read_s", "s"},
      {"storage.disk_write_s", "s"},
      {"storage.mv_mb_written", "MiB"},
      {"storage.mv_bytes_written", "bytes"},
      {"storage.read_mb_per_s", "MiB/s"},
      {"storage.write_mb_per_s", "MiB/s"},
      {"storage.shared_hit_rate", "frac"},
      {"storage.spills_per_job", "count"},
      {"storage.refills_per_job", "count"},
      {"storage.evictions_per_job", "count"},
      {"storage.spill_mb", "MiB"},
      {"service.jobs_per_s", "1/s"},
      {"service.job_p50_s", "s"},
      {"service.job_tail_s", "s"},
      {"service.queue_wait_p50_s", "s"},
      {"service.exec_p50_s", "s"},
      {"service.plan_cache_hit_rate", "frac"},
      {"service.reoptimized_frac", "frac"},
      {"service.granted_budget_frac", "frac"},
      {"service.cross_job_hit_rate", "frac"},
      {"service.recompute_s", "s"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return kSpecs;
}

/// Collects metric values by name, then emits them in catalog order.
class MetricSet {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  std::vector<Metric> Emit(const std::vector<MetricSpec>& specs) const {
    std::vector<Metric> out;
    for (const MetricSpec& spec : specs) {
      const auto it = values_.find(spec.name);
      out.push_back(
          {spec.name, it != values_.end() ? it->second : 0.0, spec.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Shared bookkeeping of one run: host record, metric lines, the
/// detailed JSON record and the Chrome trace.
struct Record {
  std::vector<std::string> json_fields;  // `"key":value` pairs

  void Add(const std::string& key, const std::string& json_value) {
    json_fields.push_back(JsonString(key) + ":" + json_value);
  }
};

std::string HostLine(const RunOptions& options) {
  return StrFormat("host: nproc=%u build=%s compiler=%s source=%s",
                   std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                   Compiler().c_str(), options.source_id.c_str());
}

std::string HostJson(const RunOptions& options) {
  return StrFormat(
      "{\"nproc\":%u,\"build_type\":%s,\"compiler\":%s,\"source\":%s}",
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(Compiler()).c_str(),
      JsonString(options.source_id).c_str());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(metrics[i].name) + ":{\"value\":" +
           JsonNumber(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricLine(const std::string& name, double value,
                       const std::string& unit) {
  return StrFormat("  %-28s %14.6g %s", name.c_str(), value, unit.c_str());
}

/// Completes the human-readable report (`lines`, then the metric table)
/// and writes the detailed record plus, for traced runs, the Chrome trace.
void Finish(const RunOptions& options, Record record,
            const sc::obs::TraceRecorder& recorder,
            std::vector<std::string> lines,
            const std::vector<std::string>& mismatched, RunResult* result) {
  result->report = std::move(lines);
  for (const Metric& m : result->metrics) {
    result->report.push_back(MetricLine(m.name, m.value, m.unit));
  }
  if (!options.trace) {
    // Failures are reported as `failed` of `attempted` in the result line;
    // as a metric the ratio would read 0 on every clean run.
    result->report.push_back(MetricLine(
        "failed_frac",
        SafeDiv(static_cast<double>(result->failed),
                static_cast<double>(result->attempted)),
        "frac"));
  }
  std::string bad = "[";
  for (std::size_t i = 0; i < mismatched.size(); ++i) {
    bad += (i > 0 ? "," : "") + JsonString(mismatched[i]);
  }
  record.Add("mismatched_mvs", bad + "]");
  fs::create_directories(options.results_dir);
  const std::string stem =
      StrFormat("%s/%s-seed%llu-%s", options.results_dir.c_str(),
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
  if (options.trace) {
    const std::string trace_path = stem + ".trace.json";
    if (!sc::obs::WriteChromeTraceFile(recorder, trace_path)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    record.Add("chrome_trace", JsonString(trace_path));
    result->report.push_back("chrome trace: " + trace_path);
  }
  record.Add("workload", JsonString(options.workload));
  record.Add("seed", std::to_string(options.seed));
  record.Add("seconds", JsonNumber(options.seconds));
  record.Add("traced", options.trace ? "true" : "false");
  record.Add("host", HostJson(options));
  record.Add("correct", result->correct ? "true" : "false");
  record.Add("attempted", std::to_string(result->attempted));
  record.Add("failed", std::to_string(result->failed));
  record.Add("metrics", MetricsJson(result->metrics));
  const std::string record_path = stem + ".json";
  std::ofstream out(record_path);
  out << "{" << sc::Join(record.json_fields, ",\n ") << "}\n";
  if (!out) throw std::runtime_error("cannot write " + record_path);
  result->report.push_back("record: " + record_path);
}

/// The end-to-end block common to every workload: latency median and
/// tail, throughput, set-up time and memory.
void EndToEnd(const std::vector<double>& latencies, double segment_seconds,
              const std::vector<double>& setup_times, MetricSet* metrics,
              Record* record, std::vector<std::string>* lines) {
  const Tail tail = TailOf(latencies);
  metrics->Set("refresh_p50_s", Median(latencies));
  metrics->Set("refresh_tail_s", tail.value);
  metrics->Set("refreshes_per_s",
               SafeDiv(static_cast<double>(latencies.size()), segment_seconds));
  metrics->Set("setup_s", Median(setup_times));
  metrics->Set("peak_rss_mb", PeakRssMiB());
  record->Add("samples", std::to_string(latencies.size()));
  record->Add("tail_percentile", JsonNumber(tail.percentile));
  std::string setups = "[";
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    setups += (i > 0 ? "," : "") + JsonNumber(setup_times[i]);
  }
  record->Add("setup_s_samples", setups + "]");
  lines->push_back(StrFormat("samples n=%zu, tail = p%.1f, setup_s = median "
                             "of %zu set-ups",
                             latencies.size(), tail.percentile,
                             setup_times.size()));
}

/// Times ThrottledDisk::ReadTable and WriteTable over `names` (writes go
/// to a scratch table that is removed afterwards). Returns MiB/s.
std::pair<double, double> ProbeDiskThroughput(
    sc::storage::ThrottledDisk* disk, const std::vector<std::string>& names,
    sc::obs::TraceRecorder* trace) {
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  std::int64_t bytes = 0;
  const std::string scratch = "perfbench_probe";
  for (const std::string& name : names) {
    double t0 = Now();
    sc::engine::Table table;
    {
      Span span(trace, "storage", "ReadTable", "\"mv\":" + JsonString(name));
      table = disk->ReadTable(name);
    }
    read_seconds += Now() - t0;
    t0 = Now();
    {
      Span span(trace, "storage", "WriteTable", "\"mv\":" + JsonString(name));
      disk->WriteTable(scratch, table);
    }
    write_seconds += Now() - t0;
    bytes += disk->FileSize(name);
  }
  disk->Remove(scratch);
  return {SafeDiv(bytes / kMiB, read_seconds),
          SafeDiv(bytes / kMiB, write_seconds)};
}

/// Per-layer counters folded over Controller reports (engine refreshes
/// and service jobs alike), so no report outlives its refresh.
class RuntimeTotals {
 public:
  void Add(const sc::runtime::RunReport& r) {
    read_.push_back(r.TotalReadSeconds());
    write_.push_back(r.TotalWriteSeconds());
    compute_.push_back(r.TotalComputeSeconds());
    hits_ += r.catalog_hits;
    misses_ += r.catalog_misses;
    peak_ = std::max(peak_, r.peak_memory);
    morsels_ += static_cast<double>(r.morsel_tasks);
    inlined_ += static_cast<double>(r.inlined_nodes);
    denials_ += static_cast<double>(r.reserve_denials);
    for (const sc::runtime::NodeRunStats& node : r.nodes) {
      if (node.reused_cross_job) continue;
      rows_ += static_cast<double>(node.output_rows);
      node_compute_ += node.compute_seconds;
    }
  }

  void Emit(MetricSet* metrics) const {
    const double n = static_cast<double>(read_.size());
    metrics->Set("runtime.read_s", Median(read_));
    metrics->Set("runtime.write_block_s", Median(write_));
    metrics->Set("runtime.compute_s", Median(compute_));
    metrics->Set("runtime.catalog_hit_rate",
                 SafeDiv(static_cast<double>(hits_),
                         static_cast<double>(hits_ + misses_)));
    metrics->Set("runtime.peak_catalog_mb", static_cast<double>(peak_) / kMiB);
    metrics->Set("runtime.morsel_tasks", SafeDiv(morsels_, n));
    metrics->Set("runtime.inlined_nodes", SafeDiv(inlined_, n));
    metrics->Set("runtime.reserve_denials", SafeDiv(denials_, n));
    metrics->Set("engine.mrows_per_s", SafeDiv(rows_ / 1e6, node_compute_));
  }

 private:
  std::vector<double> read_;
  std::vector<double> write_;
  std::vector<double> compute_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t peak_ = 0;
  double morsels_ = 0.0;
  double inlined_ = 0.0;
  double denials_ = 0.0;
  double rows_ = 0.0;
  double node_compute_ = 0.0;
};

std::vector<std::string> MvNames(const sc::workload::MvWorkload& wl) {
  std::vector<std::string> names;
  for (sc::graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    names.push_back(wl.graph.node(v).name);
  }
  return names;
}

std::int64_t MvBytes(sc::storage::ThrottledDisk& disk,
                     const sc::workload::MvWorkload& wl) {
  std::int64_t bytes = 0;
  for (const std::string& name : MvNames(wl)) {
    bytes += std::max<std::int64_t>(0, disk.FileSize(name));
  }
  return bytes;
}

std::int64_t FlaggedCount(const sc::opt::Plan& plan) {
  return static_cast<std::int64_t>(sc::opt::FlaggedNodes(plan.flags).size());
}

/// Reads every MV of `names` from `disk` and compares it with the copy on
/// `reference`; returns the names that differ or cannot be read.
std::vector<std::string> Mismatches(sc::storage::ThrottledDisk& disk,
                                    sc::storage::ThrottledDisk& reference,
                                    const std::vector<std::string>& names) {
  std::vector<std::string> bad;
  for (const std::string& name : names) {
    try {
      if (!(disk.ReadTable(name) == reference.ReadTable(name))) {
        bad.push_back(name);
      }
    } catch (const std::exception&) {
      bad.push_back(name);
    }
  }
  return bad;
}

void CaptureReference(sc::storage::ThrottledDisk& disk,
                      sc::storage::ThrottledDisk& reference,
                      const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    reference.WriteTable(name, disk.ReadTable(name));
  }
}

sc::storage::DiskProfile Unthrottled(int channels) {
  sc::storage::DiskProfile profile;
  profile.throttle = false;
  profile.channels = channels;
  return profile;
}

// ---------------------------------------------------------------------------
// Service workload
// ---------------------------------------------------------------------------

constexpr int kServiceWorkers = 4;
constexpr int kServiceOutstanding = 4;
constexpr int kServiceTenants = 4;
/// Length of the serving segment inside another workload's traced run.
constexpr double kServiceSegmentSeconds = 10.0;
constexpr std::int64_t kServiceBudget = 4LL * 1024 * 1024;

/// A set-up serving workload: base tables and No-opt reference MVs on
/// the service's disk, and a RefreshService warmed with one job per DAG.
class ServiceBench {
 public:
  ServiceBench(std::uint64_t seed, std::string dir,
               sc::obs::TraceRecorder* trace)
      : dir_(std::move(dir)) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    disk_ = std::make_unique<sc::storage::ThrottledDisk>(
        dir_ + "/warehouse", Unthrottled(kServiceWorkers));
    reference_ = std::make_unique<sc::storage::ThrottledDisk>(
        dir_ + "/reference", Unthrottled(1));
    std::map<std::string, sc::engine::TablePtr> tables;
    {
      Span span(trace, "workload", "GenerateTpcdsData");
      sc::workload::DataGenOptions datagen;
      datagen.scale = 0.3;
      datagen.seed = seed;
      tables = sc::workload::GenerateTpcdsData(datagen);
    }
    sc::runtime::Controller profiler(disk_.get(), {});
    {
      Span span(trace, "runtime", "LoadBaseTables");
      profiler.LoadBaseTables(tables);
    }
    for (sc::workload::MvWorkload& wl : sc::workload::StandardWorkloads()) {
      auto owned = std::make_shared<sc::workload::MvWorkload>(std::move(wl));
      {
        Span span(trace, "runtime", "ProfileAndAnnotate",
                  "\"dag\":" + JsonString(owned->name));
        const sc::runtime::RunReport report =
            profiler.ProfileAndAnnotate(owned.get());
        if (!report.ok) {
          throw std::runtime_error("profile " + owned->name + ": " +
                                   report.error);
        }
      }
      {
        Span span(trace, "storage", "capture_reference",
                  "\"dag\":" + JsonString(owned->name));
        CaptureReference(*disk_, *reference_, MvNames(*owned));
      }
      dags_.push_back(std::move(owned));
    }
    sc::service::ServiceOptions so;
    so.num_workers = kServiceWorkers;
    so.max_intra_job_lanes = 1;
    so.global_budget = kServiceBudget;
    so.spill_directory = dir_ + "/spill";
    service_ = std::make_unique<sc::service::RefreshService>(disk_.get(), so);
    for (std::size_t i = 0; i < dags_.size(); ++i) {
      Span span(trace, "service", "warmup_job",
                "\"dag\":" + JsonString(dags_[i]->name));
      const sc::service::JobResult r =
          service_->Submit(Spec(i, static_cast<int>(i) % kServiceTenants))
              .get();
      if (r.status != sc::service::JobStatus::kOk) {
        throw std::runtime_error("warm-up job " + dags_[i]->name + ": " +
                                 r.report.error);
      }
    }
  }

  ~ServiceBench() {
    service_.reset();
    disk_.reset();
    reference_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ServiceBench(const ServiceBench&) = delete;
  ServiceBench& operator=(const ServiceBench&) = delete;

  sc::service::RefreshJobSpec Spec(std::size_t dag, int tenant) const {
    sc::service::RefreshJobSpec spec;
    spec.workload = dags_[dag];
    spec.tenant = "tenant" + std::to_string(tenant);
    return spec;
  }

  std::vector<std::string> MismatchedMvs() {
    std::vector<std::string> bad;
    for (const auto& wl : dags_) {
      const std::vector<std::string> b =
          Mismatches(*disk_, *reference_, MvNames(*wl));
      bad.insert(bad.end(), b.begin(), b.end());
    }
    return bad;
  }

  sc::service::RefreshService& service() { return *service_; }
  sc::storage::ThrottledDisk& disk() { return *disk_; }
  const std::vector<std::shared_ptr<sc::workload::MvWorkload>>& dags() const {
    return dags_;
  }

 private:
  std::string dir_;
  std::unique_ptr<sc::storage::ThrottledDisk> disk_;
  std::unique_ptr<sc::storage::ThrottledDisk> reference_;
  std::vector<std::shared_ptr<sc::workload::MvWorkload>> dags_;
  std::unique_ptr<sc::service::RefreshService> service_;
};

struct JobSample {
  double latency = 0.0;
  bool failed = false;
};

/// Service-layer counters folded over job results as jobs finish.
struct ServiceTotals {
  std::vector<double> queue_wait;
  std::vector<double> exec;
  double plan_cache_hits = 0.0;
  double reoptimized = 0.0;
  double granted = 0.0;
  double requested = 0.0;
  double cross_job_hits = 0.0;
  double resolutions = 0.0;
  double recompute_seconds = 0.0;

  void Add(const sc::service::JobResult& r) {
    queue_wait.push_back(r.queue_wait_seconds);
    exec.push_back(r.exec_seconds);
    plan_cache_hits += r.plan_cache_hit ? 1.0 : 0.0;
    reoptimized += r.reoptimized ? 1.0 : 0.0;
    granted += static_cast<double>(r.granted_budget);
    requested += static_cast<double>(r.requested_budget);
    cross_job_hits += static_cast<double>(r.report.cross_job_hits);
    resolutions += static_cast<double>(r.report.catalog_hits +
                                       r.report.catalog_misses);
    for (const sc::runtime::NodeRunStats& node : r.report.nodes) {
      if (!node.reused_cross_job) recompute_seconds += node.compute_seconds;
    }
  }
};

/// One timed closed-loop segment against a set-up service, followed by
/// the correctness check of every MV it refreshed.
struct ServiceSegment {
  std::vector<JobSample> samples;
  ServiceTotals totals;
  double seconds = 0.0;  // first Submit to last completion
  /// Failed jobs plus one per mismatched MV (under sharing the job that
  /// last wrote a mismatched MV is unknown).
  std::int64_t failed = 0;
  std::vector<std::string> mismatched;
  // Counter deltas over the segment.
  std::int64_t shared_hits = 0;
  std::int64_t shared_misses = 0;
  std::int64_t spills = 0;
  std::int64_t refills = 0;
  std::int64_t evictions = 0;
};

/// Runs the closed loop for `seconds`: kServiceOutstanding client threads
/// each submit a job, block on its future and submit the next, taking jobs
/// from a seed-shuffled cycle over every (DAG, tenant) pair through one
/// shared counter. Each latency runs from Submit until that job's own
/// future is ready. With `trace`, odd jobs run inside a span.
ServiceSegment MeasureService(ServiceBench* bench, double seconds,
                              std::uint64_t seed,
                              sc::obs::TraceRecorder* trace) {
  std::vector<std::pair<std::size_t, int>> order;
  for (std::size_t d = 0; d < bench->dags().size(); ++d) {
    for (int t = 0; t < kServiceTenants; ++t) order.emplace_back(d, t);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  sc::service::RefreshService& service = bench->service();
  const sc::storage::SharedCatalog& shared = service.shared_catalog();
  ServiceSegment seg;
  seg.shared_hits = -shared.hits();
  seg.shared_misses = -shared.misses();
  seg.spills = -shared.spills();
  seg.refills = -shared.spill_refills();
  seg.evictions = -shared.evictions();

  std::mutex mutex;  // guards seg.samples, seg.totals, last_done, error
  double last_done = 0.0;
  std::exception_ptr error;
  std::atomic<std::size_t> next{0};
  const double start = Now();
  auto client_loop = [&] {
    while (Now() - start < seconds) {
      const std::size_t job = next.fetch_add(1);
      const auto [dag, tenant] = order[job % order.size()];
      const bool traced = trace != nullptr && job % 2 == 1;
      JobSample s;
      const double submitted = Now();
      sc::service::JobResult r;
      {
        Span span(traced ? trace : nullptr, "service", "job",
                  traced ? StrFormat("\"job\":%zu,\"dag\":%s,\"tenant\":%d",
                                     job,
                                     JsonString(bench->dags()[dag]->name)
                                         .c_str(),
                                     tenant)
                         : std::string());
        r = service.Submit(bench->Spec(dag, tenant)).get();
      }
      const double done = Now();
      s.latency = done - submitted;
      s.failed = r.status != sc::service::JobStatus::kOk ||
                 RefreshFailed(r.report);
      std::lock_guard<std::mutex> lock(mutex);
      last_done = std::max(last_done, done);
      seg.samples.push_back(s);
      seg.totals.Add(r);
    }
  };
  auto client = [&](int index) {
    sc::obs::SetThreadTrack("client-" + std::to_string(index));
    try {
      client_loop();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> clients;
    for (int i = 0; i < kServiceOutstanding; ++i) {
      clients.emplace_back(client, i);
    }
  }
  if (error) std::rethrow_exception(error);
  seg.seconds = last_done - start;
  seg.shared_hits += shared.hits();
  seg.shared_misses += shared.misses();
  seg.spills += shared.spills();
  seg.refills += shared.spill_refills();
  seg.evictions += shared.evictions();

  for (const JobSample& s : seg.samples) seg.failed += s.failed ? 1 : 0;
  {
    Span span(trace, "storage", "verify");
    seg.mismatched = bench->MismatchedMvs();
  }
  seg.failed += static_cast<std::int64_t>(seg.mismatched.size());
  return seg;
}

std::vector<double> Latencies(const ServiceSegment& seg) {
  std::vector<double> latencies;
  for (const JobSample& s : seg.samples) latencies.push_back(s.latency);
  return latencies;
}

/// The service and shared-catalog layer metrics of a segment.
void ServiceLayer(const ServiceSegment& seg, ServiceBench* bench,
                  MetricSet* metrics) {
  const double jobs = static_cast<double>(seg.samples.size());
  const std::vector<double> latencies = Latencies(seg);
  metrics->Set("service.jobs_per_s", SafeDiv(jobs, seg.seconds));
  metrics->Set("service.job_p50_s", Median(latencies));
  metrics->Set("service.job_tail_s", TailOf(latencies).value);
  metrics->Set("service.queue_wait_p50_s", Median(seg.totals.queue_wait));
  metrics->Set("service.exec_p50_s", Median(seg.totals.exec));
  metrics->Set("service.plan_cache_hit_rate",
               SafeDiv(seg.totals.plan_cache_hits, jobs));
  metrics->Set("service.reoptimized_frac",
               SafeDiv(seg.totals.reoptimized, jobs));
  metrics->Set("service.granted_budget_frac",
               SafeDiv(seg.totals.granted, seg.totals.requested));
  metrics->Set("service.cross_job_hit_rate",
               SafeDiv(seg.totals.cross_job_hits, seg.totals.resolutions));
  metrics->Set("service.recompute_s",
               SafeDiv(seg.totals.recompute_seconds, jobs));
  metrics->Set("storage.shared_hit_rate",
               SafeDiv(static_cast<double>(seg.shared_hits),
                       static_cast<double>(seg.shared_hits +
                                           seg.shared_misses)));
  metrics->Set("storage.spills_per_job",
               SafeDiv(static_cast<double>(seg.spills), jobs));
  metrics->Set("storage.refills_per_job",
               SafeDiv(static_cast<double>(seg.refills), jobs));
  metrics->Set("storage.evictions_per_job",
               SafeDiv(static_cast<double>(seg.evictions), jobs));
  metrics->Set("storage.spill_mb",
               static_cast<double>(
                   bench->service().shared_catalog().spill_bytes()) /
                   kMiB);
}

/// End-to-end run of the serving workload. It has no traced mode: its
/// layer metrics come from the service segment of a traced compute_lanes
/// run (EngineConfig::service_segment).
RunResult RunService(const RunOptions& options) {
  if (options.trace) {
    throw std::invalid_argument(
        "service_shared runs untraced only; its service.* and storage.* "
        "layer metrics come from the traced compute_lanes run");
  }
  sc::obs::TraceRecorder recorder;
  std::vector<double> setup_times;
  std::unique_ptr<ServiceBench> bench;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.reset();  // tear the previous set-up down outside the timing
    const double t0 = Now();
    bench = std::make_unique<ServiceBench>(
        options.seed, options.work_dir + "/service_shared", nullptr);
    setup_times.push_back(Now() - t0);
  }
  const ServiceSegment seg =
      MeasureService(bench.get(), options.seconds, options.seed, nullptr);

  RunResult result;
  result.attempted = static_cast<std::int64_t>(seg.samples.size());
  result.failed = seg.failed;
  result.correct = result.failed == 0;
  MetricSet metrics;
  Record record;
  std::vector<std::string> lines;
  lines.push_back(StrFormat("perfbench service_shared seed=%llu seconds=%g "
                            "untraced",
                            static_cast<unsigned long long>(options.seed),
                            options.seconds));
  lines.push_back(HostLine(options));
  EndToEnd(Latencies(seg), seg.seconds, setup_times, &metrics, &record,
           &lines);
  result.metrics = metrics.Emit(EndToEndSpecs());
  bench.reset();
  Finish(options, std::move(record), recorder, std::move(lines),
         seg.mismatched, &result);
  return result;
}

// ---------------------------------------------------------------------------
// Engine workloads
// ---------------------------------------------------------------------------

/// One timed refresh of the engine segment.
struct EngineSample {
  std::size_t dag = 0;
  double wall = 0.0;
  bool traced = false;
  bool failed = false;
  std::int64_t peak_memory = 0;
};

/// Measured and simulated refresh time of one method on every DAG.
struct MethodRow {
  std::string method;
  std::vector<double> measured;   // per-DAG median wall; empty if sim-only
  std::vector<double> simulated;  // per-DAG sim prediction; empty if none
};

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

/// Real-engine Fig. 9: every method's plan run on every DAG (S/C taken
/// from the timed segment), next to sim::SimulateRun on the same plan
/// with the device matched to the disk profile. LRU is simulated only.
std::vector<MethodRow> Fig9Table(EngineBench* bench,
                                 const std::vector<EngineSample>& samples,
                                 std::uint64_t seed,
                                 sc::obs::TraceRecorder* trace,
                                 std::int64_t* attempted,
                                 std::int64_t* failed) {
  constexpr int kReps = 2;
  const bool simulate = bench->config().disk.throttle;
  sc::cost::DeviceProfile device;
  device.disk_read_bw = bench->config().disk.read_bw;
  device.disk_write_bw = bench->config().disk.write_bw;
  device.disk_latency = bench->config().disk.latency;
  device.table_read_overhead = 0.0;
  device.table_write_overhead = 0.0;

  std::vector<MethodRow> rows = {{"No-opt", {}, {}}, {"LRU", {}, {}},
                                 {"Random", {}, {}}, {"Greedy", {}, {}},
                                 {"Ratio", {}, {}},  {"S/C", {}, {}}};
  const auto& dags = bench->dags();
  for (std::size_t d = 0; d < dags.size(); ++d) {
    const sc::graph::Graph& g = dags[d].wl->graph;
    const std::int64_t budget = dags[d].budget;
    sc::opt::Plan base;
    base.order = sc::graph::KahnTopologicalOrder(g);
    std::vector<sc::opt::Plan> plans(4, base);
    plans[0].flags = sc::opt::EmptyFlags(g.num_nodes());
    plans[1].flags = sc::opt::SelectRandom(g, base.order, budget, seed);
    plans[2].flags = sc::opt::SelectGreedy(g, base.order, budget);
    plans[3].flags = sc::opt::SelectRatio(g, base.order, budget);
    const std::size_t row_of[4] = {0, 2, 3, 4};
    for (std::size_t m = 0; m < plans.size(); ++m) {
      std::vector<double> walls;
      for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = Now();
        sc::runtime::RunReport report;
        {
          Span span(trace, "runtime", "Controller::Run",
                    StrFormat("\"dag\":%s,\"method\":%s",
                              JsonString(dags[d].wl->name).c_str(),
                              JsonString(rows[row_of[m]].method).c_str()));
          report = bench->RunPlan(d, plans[m]);
        }
        walls.push_back(Now() - t0);
        ++*attempted;
        if (RefreshFailed(report)) ++*failed;
      }
      rows[row_of[m]].measured.push_back(Median(walls));
    }
    std::vector<double> sc_walls;
    for (const EngineSample& s : samples) {
      if (s.dag == d) sc_walls.push_back(s.wall);
    }
    rows[5].measured.push_back(Median(sc_walls));
    if (simulate) {
      Span span(trace, "sim", "SimulateRun",
                "\"dag\":" + JsonString(dags[d].wl->name));
      sc::sim::SimOptions sim;
      sim.device = device;
      sim.budget = budget;
      sim.background_materialize = true;
      for (std::size_t m = 0; m < plans.size(); ++m) {
        rows[row_of[m]].simulated.push_back(
            sc::sim::SimulateRun(g, plans[m], sim).makespan);
      }
      rows[1].simulated.push_back(
          sc::sim::SimulateLruBaseline(g, budget, sim).makespan);
      rows[5].simulated.push_back(
          sc::sim::SimulateRun(g, dags[d].plan, sim).makespan);
    }
  }
  return rows;
}

std::vector<std::string> Fig9Lines(const std::vector<MethodRow>& rows,
                                   const std::vector<Dag>& dags) {
  std::vector<std::string> header = {"method"};
  for (const Dag& dag : dags) header.push_back(dag.wl->name);
  header.push_back("total");
  sc::TablePrinter table(std::move(header));
  // One cell: "measured / sim predicted", either side "-" when absent.
  auto cell = [](const std::vector<double>& measured,
                 const std::vector<double>& simulated, std::size_t d) {
    const auto value = [d](const std::vector<double>& v) -> double {
      if (d == v.size()) return std::accumulate(v.begin(), v.end(), 0.0);
      return d < v.size() ? v[d] : -1.0;
    };
    const double real = measured.empty() ? -1.0 : value(measured);
    const double sim = simulated.empty() ? -1.0 : value(simulated);
    return (real >= 0 ? StrFormat("%.3f", real) : std::string("-")) + " / " +
           (sim >= 0 ? StrFormat("sim %.3f", sim) : std::string("-"));
  };
  for (const MethodRow& row : rows) {
    std::vector<std::string> cells = {row.method};
    for (std::size_t d = 0; d <= dags.size(); ++d) {
      cells.push_back(cell(row.measured, row.simulated, d));
    }
    table.AddRow(std::move(cells));
  }
  std::vector<std::string> lines = {
      "Fig. 9, real engine: per-DAG median refresh seconds / sim::SimulateRun "
      "on the same plan (LRU is simulated only):"};
  for (const std::string& line : sc::Split(table.ToString(), '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string Fig9Json(const std::vector<MethodRow>& rows,
                     const std::vector<Dag>& dags) {
  std::string out = "[";
  bool first = true;
  for (const MethodRow& row : rows) {
    for (std::size_t d = 0; d < dags.size(); ++d) {
      out += first ? "" : ",";
      first = false;
      out += StrFormat(
          "{\"method\":%s,\"dag\":%s,\"measured_s\":%s,\"simulated_s\":%s}",
          JsonString(row.method).c_str(),
          JsonString(dags[d].wl->name).c_str(),
          d < row.measured.size() ? JsonNumber(row.measured[d]).c_str()
                                  : "null",
          d < row.simulated.size() ? JsonNumber(row.simulated[d]).c_str()
                                   : "null");
    }
  }
  return out + "]";
}

std::string CountsJson(const ExactCounts& c) {
  return StrFormat(
      "{\"flagged_nodes\":%lld,\"catalog_hits\":%lld,\"catalog_misses\":%lld,"
      "\"peak_catalog_bytes\":%lld,\"mv_bytes_written\":%lld}",
      static_cast<long long>(c.flagged_nodes),
      static_cast<long long>(c.catalog_hits),
      static_cast<long long>(c.catalog_misses),
      static_cast<long long>(c.peak_catalog_bytes),
      static_cast<long long>(c.mv_bytes_written));
}

ExactCounts CountsOf(EngineBench* bench,
                     const std::vector<sc::runtime::RunReport>& round) {
  ExactCounts counts;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Dag& dag = bench->dags()[i];
    counts.flagged_nodes += FlaggedCount(dag.plan);
    counts.catalog_hits += round[i].catalog_hits;
    counts.catalog_misses += round[i].catalog_misses;
    counts.peak_catalog_bytes =
        std::max(counts.peak_catalog_bytes, round[i].peak_memory);
    counts.mv_bytes_written += MvBytes(bench->disk(), *dag.wl);
  }
  return counts;
}

RunResult RunEngine(const RunOptions& options, const EngineConfig& config) {
  sc::obs::TraceRecorder recorder;
  recorder.set_enabled(options.trace);
  sc::obs::TraceRecorder* trace = options.trace ? &recorder : nullptr;
  sc::obs::SetThreadTrack("client");
  const std::string dir = options.work_dir + "/" + config.name;

  std::vector<double> setup_times;
  std::unique_ptr<EngineBench> bench;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.reset();  // tear the previous set-up down outside the timing
    const double t0 = Now();
    {
      Span span(trace, "bench", "setup", StrFormat("\"rep\":%d", rep));
      bench = std::make_unique<EngineBench>(config, options.seed, dir, trace);
    }
    setup_times.push_back(Now() - t0);
  }

  // Timed segment: whole rounds over every DAG, closed loop. In a traced
  // run odd rounds time each refresh inside a span, so their wall times
  // include recording it, and even rounds record nothing: the two halves
  // give the tracing overhead.
  sc::storage::ThrottledDisk& disk = bench->disk();
  const double disk_read0 = disk.total_read_seconds();
  const double disk_write0 = disk.total_write_seconds();
  const double busy0 = bench->pool() ? bench->pool()->busy_seconds() : 0.0;
  // A round refreshes every DAG once. With an even number of DAGs the last
  // one runs twice, so a round holds an odd number of refreshes and the
  // median is a refresh of one DAG, not the mean of two DAGs' extremes.
  const std::size_t num_dags = bench->dags().size();
  std::vector<std::size_t> round_order(num_dags);
  std::iota(round_order.begin(), round_order.end(), 0);
  if (num_dags % 2 == 0) round_order.push_back(num_dags - 1);
  std::vector<EngineSample> samples;
  std::vector<sc::runtime::RunReport> first_round;
  RuntimeTotals runtime;
  const double start = Now();
  for (int round = 0;; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    for (const std::size_t i : round_order) {
      EngineSample s;
      s.dag = i;
      s.traced = traced;
      const double t0 = Now();
      sc::runtime::RunReport report;
      {
        Span span(traced ? trace : nullptr, "runtime", "Controller::Run",
                  traced ? StrFormat("\"dag\":%s,\"round\":%d",
                                     JsonString(bench->dags()[i].wl->name)
                                         .c_str(),
                                     round)
                         : std::string());
        report = bench->Refresh(i);
      }
      s.wall = Now() - t0;
      s.failed = RefreshFailed(report);
      s.peak_memory = report.peak_memory;
      runtime.Add(report);
      if (round == 0 && first_round.size() < num_dags) {
        first_round.push_back(std::move(report));
      }
      samples.push_back(s);
    }
    if (Now() - start >= options.seconds) break;
  }
  const double segment = Now() - start;
  const double busy =
      bench->pool() ? bench->pool()->busy_seconds() - busy0 : 0.0;
  const double disk_read = disk.total_read_seconds() - disk_read0;
  const double disk_write = disk.total_write_seconds() - disk_write0;

  // Correctness: every MV read back against the No-opt reference. A DAG
  // with a mismatched MV fails its last refresh.
  Record record;
  std::vector<std::string> mismatched;
  {
    Span span(trace, "storage", "verify");
    for (std::size_t i = 0; i < bench->dags().size(); ++i) {
      const std::vector<std::string> bad = bench->MismatchedMvs(i);
      if (bad.empty()) continue;
      mismatched.insert(mismatched.end(), bad.begin(), bad.end());
      for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
        if (it->dag == i) {
          it->failed = true;
          break;
        }
      }
    }
  }

  RunResult result;
  result.attempted = static_cast<std::int64_t>(samples.size());
  for (const EngineSample& s : samples) result.failed += s.failed ? 1 : 0;

  const ExactCounts counts = CountsOf(bench.get(), first_round);
  record.Add("exact_counts_first_round", CountsJson(counts));

  MetricSet metrics;
  std::vector<std::string> lines;
  lines.push_back(StrFormat("perfbench %s seed=%llu seconds=%g %s",
                            config.name.c_str(),
                            static_cast<unsigned long long>(options.seed),
                            options.seconds,
                            options.trace ? "traced" : "untraced"));
  lines.push_back(HostLine(options));
  std::vector<double> walls;
  for (const EngineSample& s : samples) walls.push_back(s.wall);

  if (!options.trace) {
    EndToEnd(walls, segment, setup_times, &metrics, &record, &lines);
    result.metrics = metrics.Emit(EndToEndSpecs());
  } else {
    std::vector<double> traced_walls;
    std::vector<double> untraced_walls;
    for (const EngineSample& s : samples) {
      (s.traced ? traced_walls : untraced_walls).push_back(s.wall);
    }
    runtime.Emit(&metrics);
    const double n = static_cast<double>(samples.size());
    const int capacity = bench->pool() ? bench->pool()->capacity() : 0;
    metrics.Set("runtime.lane_util", SafeDiv(busy, segment * capacity));
    metrics.Set("storage.disk_read_s", disk_read / n);
    metrics.Set("storage.disk_write_s", disk_write / n);
    metrics.Set("obs.trace_overhead_frac",
                SafeDiv(Median(traced_walls), Median(untraced_walls)) - 1.0);

    std::vector<double> optimize;
    std::int64_t nodes = 0;
    std::vector<double> peak_error;
    std::vector<std::string> all_mvs;
    for (std::size_t i = 0; i < bench->dags().size(); ++i) {
      const Dag& dag = bench->dags()[i];
      optimize.push_back(dag.optimize_seconds);
      nodes += dag.wl->num_nodes();
      const std::int64_t predicted = sc::opt::PeakMemoryUsage(
          dag.wl->graph, dag.plan.order, dag.plan.flags);
      std::int64_t actual = 0;
      for (const EngineSample& s : samples) {
        if (s.dag == i) actual = std::max(actual, s.peak_memory);
      }
      peak_error.push_back(
          SafeDiv(std::fabs(static_cast<double>(predicted - actual)),
                  static_cast<double>(std::max<std::int64_t>(actual, 1))));
      const std::vector<std::string> names = MvNames(*dag.wl);
      all_mvs.insert(all_mvs.end(), names.begin(), names.end());
    }
    metrics.Set("opt.optimize_s", Median(optimize));
    metrics.Set("opt.flagged_frac",
                SafeDiv(static_cast<double>(counts.flagged_nodes),
                        static_cast<double>(nodes)));
    metrics.Set("opt.peak_pred_error_frac", Mean(peak_error));
    metrics.Set("opt.flagged_nodes", static_cast<double>(counts.flagged_nodes));
    metrics.Set("runtime.catalog_hits",
                static_cast<double>(counts.catalog_hits));
    metrics.Set("runtime.catalog_misses",
                static_cast<double>(counts.catalog_misses));
    metrics.Set("runtime.peak_catalog_bytes",
                static_cast<double>(counts.peak_catalog_bytes));
    metrics.Set("storage.mv_bytes_written",
                static_cast<double>(counts.mv_bytes_written));
    metrics.Set("storage.mv_mb_written",
                static_cast<double>(counts.mv_bytes_written) / kMiB);

    const std::vector<MethodRow> table =
        Fig9Table(bench.get(), samples, options.seed, trace, &result.attempted,
                  &result.failed);
    const char* keys[] = {"opt.noopt_refresh_s", nullptr,
                          "opt.random_refresh_s", "opt.greedy_refresh_s",
                          "opt.ratio_refresh_s", "opt.sc_refresh_s"};
    for (std::size_t m = 0; m < table.size(); ++m) {
      if (keys[m] != nullptr) metrics.Set(keys[m], Mean(table[m].measured));
    }
    metrics.Set("opt.sc_speedup",
                SafeDiv(Mean(table[0].measured), Mean(table[5].measured)));
    if (!table[5].simulated.empty()) {
      std::vector<double> errors;
      for (std::size_t d = 0; d < table[5].measured.size(); ++d) {
        errors.push_back(SafeDiv(
            std::fabs(table[5].simulated[d] - table[5].measured[d]),
            table[5].measured[d]));
      }
      metrics.Set("sim.makespan_error_frac", Mean(errors));
      metrics.Set("sim.lru_refresh_s", Mean(table[1].simulated));
    }
    record.Add("fig9_table", Fig9Json(table, bench->dags()));
    for (const std::string& line : Fig9Lines(table, bench->dags())) {
      lines.push_back(line);
    }

    // The Fig. 9 runs rewrote every MV under four more plans: check again.
    {
      Span span(trace, "storage", "verify");
      for (std::size_t i = 0; i < bench->dags().size(); ++i) {
        const std::vector<std::string> bad = bench->MismatchedMvs(i);
        result.failed += bad.empty() ? 0 : 1;
        mismatched.insert(mismatched.end(), bad.begin(), bad.end());
      }
    }
    const auto [read_mbps, write_mbps] =
        ProbeDiskThroughput(&disk, all_mvs, trace);
    metrics.Set("storage.read_mb_per_s", read_mbps);
    metrics.Set("storage.write_mb_per_s", write_mbps);

    if (config.service_segment) {
      std::unique_ptr<ServiceBench> service;
      {
        Span span(trace, "bench", "service_setup");
        service = std::make_unique<ServiceBench>(
            options.seed, options.work_dir + "/service", trace);
      }
      const ServiceSegment seg =
          MeasureService(service.get(),
                         std::min(options.seconds, kServiceSegmentSeconds),
                         options.seed, trace);
      ServiceLayer(seg, service.get(), &metrics);
      result.attempted += static_cast<std::int64_t>(seg.samples.size());
      result.failed += seg.failed;
      mismatched.insert(mismatched.end(), seg.mismatched.begin(),
                        seg.mismatched.end());
    }
    result.metrics = metrics.Emit(PerLayerSpecs());
  }
  result.correct = result.failed == 0 && mismatched.empty();
  bench.reset();
  Finish(options, std::move(record), recorder, std::move(lines), mismatched,
         &result);
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

EngineConfig Fig9IoConfig() {
  EngineConfig config;
  config.name = "fig9_io";
  config.tpcds_scale = 0.3;
  // The warehouse_refresh profile: slow NFS-like storage, one channel.
  config.disk.read_bw = 80e6;
  config.disk.write_bw = 50e6;
  config.disk.latency = 2e-3;
  config.disk.channels = 1;
  config.budget_fraction = 0.1;
  config.lanes = 1;
  config.warmup_rounds = 1;
  return config;
}

EngineConfig ComputeLanesConfig() {
  EngineConfig config;
  config.name = "compute_lanes";
  config.tpcds_scale = 3.0;
  config.string_heavy = true;
  config.disk = Unthrottled(1);
  config.budget_fraction = 1.0;
  config.lanes = 4;
  // The string-heavy DAG runs slow on its first two refreshes.
  config.warmup_rounds = 2;
  config.service_segment = true;
  return config;
}

EngineBench::EngineBench(EngineConfig config, std::uint64_t seed,
                         std::string dir, sc::obs::TraceRecorder* trace)
    : config_(std::move(config)), dir_(std::move(dir)) {
  std::error_code ec;
  fs::remove_all(dir_, ec);
  disk_ = std::make_unique<sc::storage::ThrottledDisk>(dir_ + "/warehouse",
                                                       config_.disk);
  reference_ = std::make_unique<sc::storage::ThrottledDisk>(
      dir_ + "/reference", Unthrottled(1));
  sc::runtime::ControllerOptions options;
  options.background_materialize = true;
  options.max_parallel_nodes = config_.lanes;
  if (config_.lanes > 1) {
    pool_ = std::make_unique<sc::runtime::LanePool>(
        sc::runtime::LanePoolOptions{config_.lanes, 0.0});
    options.lane_pool = pool_.get();
  }
  controller_ =
      std::make_unique<sc::runtime::Controller>(disk_.get(), options);

  std::map<std::string, sc::engine::TablePtr> tables;
  {
    Span span(trace, "workload", "GenerateTpcdsData");
    sc::workload::DataGenOptions datagen;
    datagen.scale = config_.tpcds_scale;
    datagen.seed = seed;
    tables = sc::workload::GenerateTpcdsData(datagen);
  }
  std::vector<sc::workload::MvWorkload> workloads =
      sc::workload::StandardWorkloads();
  if (config_.string_heavy) {
    Span span(trace, "workload", "GenerateStringHeavyData");
    sc::workload::StringHeavyOptions strings;
    strings.scale = 1.0;
    strings.seed = seed;
    tables.merge(sc::workload::GenerateStringHeavyData(strings));
    workloads.push_back(sc::workload::BuildStringHeavySynthetic(8));
  }
  {
    Span span(trace, "runtime", "LoadBaseTables");
    controller_->LoadBaseTables(tables);
  }
  tables.clear();
  for (sc::workload::MvWorkload& wl : workloads) {
    Dag dag;
    dag.wl = std::make_shared<sc::workload::MvWorkload>(std::move(wl));
    const std::string args = "\"dag\":" + JsonString(dag.wl->name);
    {
      Span span(trace, "runtime", "ProfileAndAnnotate", args);
      const sc::runtime::RunReport report =
          controller_->ProfileAndAnnotate(dag.wl.get());
      if (!report.ok) {
        throw std::runtime_error("profile " + dag.wl->name + ": " +
                                 report.error);
      }
    }
    {
      Span span(trace, "storage", "capture_reference", args);
      CaptureReference(*disk_, *reference_, MvNames(*dag.wl));
    }
    dag.budget = std::max<std::int64_t>(
        1, std::llround(config_.budget_fraction *
                        static_cast<double>(dag.wl->graph.TotalSize())));
    {
      Span span(trace, "opt", "Optimizer::Optimize", args);
      const double t0 = Now();
      dag.plan = sc::opt::Optimizer{}.Optimize(dag.wl->graph, dag.budget).plan;
      dag.optimize_seconds = Now() - t0;
    }
    dags_.push_back(std::move(dag));
  }
  for (int round = 0; round < config_.warmup_rounds; ++round) {
    for (std::size_t i = 0; i < dags_.size(); ++i) {
      Span span(trace, "runtime", "warmup_refresh",
                "\"dag\":" + JsonString(dags_[i].wl->name));
      const sc::runtime::RunReport report = Refresh(i);
      if (RefreshFailed(report)) {
        throw std::runtime_error("warm-up refresh " + dags_[i].wl->name +
                                 " failed: " + report.error);
      }
    }
  }
}

EngineBench::~EngineBench() {
  controller_.reset();
  pool_.reset();
  disk_.reset();
  reference_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

sc::runtime::RunReport EngineBench::Refresh(std::size_t i) {
  return RunPlan(i, dags_.at(i).plan);
}

sc::runtime::RunReport EngineBench::RunPlan(std::size_t i,
                                            const sc::opt::Plan& plan) {
  const Dag& dag = dags_.at(i);
  return controller_->RunWithBudget(*dag.wl, plan, dag.budget);
}

std::vector<std::string> EngineBench::MismatchedMvs(std::size_t i) {
  return Mismatches(*disk_, *reference_, MvNames(*dags_.at(i).wl));
}

bool RefreshFailed(const sc::runtime::RunReport& report) {
  return !report.ok || report.peak_memory > report.budget;
}

ExactCounts CountRound(EngineBench* bench) {
  std::vector<sc::runtime::RunReport> round;
  for (std::size_t i = 0; i < bench->dags().size(); ++i) {
    round.push_back(bench->Refresh(i));
  }
  return CountsOf(bench, round);
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "fig9_io") {
    return RunEngine(options, Fig9IoConfig());
  }
  if (options.workload == "compute_lanes") {
    return RunEngine(options, ComputeLanesConfig());
  }
  if (options.workload == "service_shared") return RunService(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

std::string ResultLine(const RunResult& result) {
  return StrFormat("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                   "\"metrics\": %s}",
                   result.correct ? "true" : "false",
                   static_cast<long long>(result.attempted),
                   static_cast<long long>(result.failed),
                   MetricsJson(result.metrics).c_str());
}

}  // namespace perfbench
