// Real-engine refresh benchmark: workloads, correctness check and metrics.
//
// Everything here drives the library through its public entry points
// (runtime::Controller, service::RefreshService, storage::ThrottledDisk,
// opt::Optimizer, sim::SimulateRun) and reads the counters those calls
// already return. The benchmark records its own spans around those calls;
// it never turns on the program's internal tracing.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "opt/types.h"
#include "runtime/controller.h"
#include "runtime/lane_pool.h"
#include "storage/throttled_disk.h"
#include "workload/workloads.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics plus a Chrome trace of the
  /// benchmark's own spans. Untraced: end-to-end metrics.
  bool trace = false;
  /// Scratch directory for disks and spill files; removed afterwards.
  std::string work_dir;
  /// Where the detailed record (and the Chrome trace) are written.
  std::string results_dir;
  /// Git commit or source digest of the code under test.
  std::string source_id = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Human-readable lines: host record, Fig. 9 table, metric table.
  std::vector<std::string> report;
};

/// Runs one workload (fig9_io, compute_lanes or service_shared) end to
/// end. Throws std::invalid_argument for an unknown workload or a traced
/// service_shared run (it has no traced mode), and std::runtime_error on a
/// set-up failure.
RunResult RunWorkload(const RunOptions& options);

/// The last line the benchmark prints: {"correct", "attempted", "failed",
/// "metrics"}.
std::string ResultLine(const RunResult& result);

// ---------------------------------------------------------------------------
// Engine workloads (fig9_io, compute_lanes): one Controller, DAGs refreshed
// round-robin. Exposed for the benchmark's own tests.
// ---------------------------------------------------------------------------

struct EngineConfig {
  std::string name;
  double tpcds_scale = 0.3;
  /// Adds BuildStringHeavySynthetic(8) over GenerateStringHeavyData at
  /// scale 1.
  bool string_heavy = false;
  sc::storage::DiskProfile disk;
  /// Memory Catalog budget as a share of each DAG's profiled MV bytes.
  double budget_fraction = 0.1;
  int lanes = 1;
  int warmup_rounds = 1;
  /// Traced runs also measure the serving path (RefreshService over the
  /// shared catalog with spill) for the service and shared-catalog layer
  /// metrics.
  bool service_segment = false;
};

EngineConfig Fig9IoConfig();
EngineConfig ComputeLanesConfig();

/// One profiled and optimized DAG.
struct Dag {
  std::shared_ptr<sc::workload::MvWorkload> wl;
  sc::opt::Plan plan;
  std::int64_t budget = 0;
  double optimize_seconds = 0.0;
};

/// A set-up engine workload: base tables on its disk, every DAG profiled
/// (the No-opt run, whose MVs are kept as the reference on a second,
/// unthrottled disk), optimized, and warmed up.
class EngineBench {
 public:
  /// Runs the whole set-up. `trace` (optional) receives set-up spans.
  EngineBench(EngineConfig config, std::uint64_t seed, std::string dir,
              sc::obs::TraceRecorder* trace = nullptr);
  ~EngineBench();

  EngineBench(const EngineBench&) = delete;
  EngineBench& operator=(const EngineBench&) = delete;

  /// One Controller::Run of DAG `i` under its S/C plan.
  sc::runtime::RunReport Refresh(std::size_t i);
  /// Controller::Run of DAG `i` under an arbitrary plan.
  sc::runtime::RunReport RunPlan(std::size_t i, const sc::opt::Plan& plan);

  /// Names of MVs whose file is not byte-identical (Table::operator==)
  /// to the No-opt reference, or cannot be read.
  std::vector<std::string> MismatchedMvs(std::size_t i);

  const EngineConfig& config() const { return config_; }
  const std::vector<Dag>& dags() const { return dags_; }
  sc::storage::ThrottledDisk& disk() { return *disk_; }
  sc::runtime::LanePool* pool() { return pool_.get(); }

 private:
  EngineConfig config_;
  std::string dir_;
  std::unique_ptr<sc::storage::ThrottledDisk> disk_;
  std::unique_ptr<sc::storage::ThrottledDisk> reference_;
  std::unique_ptr<sc::runtime::LanePool> pool_;
  std::unique_ptr<sc::runtime::Controller> controller_;
  std::vector<Dag> dags_;
};

/// True when a refresh counts as failed: its report is not ok, or its
/// Memory Catalog peak exceeded the budget it ran under.
bool RefreshFailed(const sc::runtime::RunReport& report);

/// The exact-count record of one S/C round over the fig9_io DAGs (one
/// sequential refresh per DAG). Same seed, same counts.
struct ExactCounts {
  std::int64_t flagged_nodes = 0;
  std::int64_t catalog_hits = 0;
  std::int64_t catalog_misses = 0;
  std::int64_t peak_catalog_bytes = 0;  // largest over the round
  std::int64_t mv_bytes_written = 0;    // sum of FileSize over the MVs
  bool operator==(const ExactCounts&) const = default;
};

/// Runs one S/C round on a set-up bench and collects the exact counts.
ExactCounts CountRound(EngineBench* bench);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
