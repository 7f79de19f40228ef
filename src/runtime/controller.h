#ifndef SC_RUNTIME_CONTROLLER_H_
#define SC_RUNTIME_CONTROLLER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "opt/types.h"
#include "runtime/cancel.h"
#include "runtime/lane_pool.h"
#include "storage/memory_catalog.h"
#include "storage/throttled_disk.h"
#include "workload/workloads.h"

namespace sc::runtime {

/// Background materialization worker (paper §III-C): a single writer
/// channel that persists Memory Catalog tables to external storage while
/// the DBMS executes downstream nodes. FIFO, mirroring one storage write
/// channel.
///
/// Writes drain on a LanePool (the service-wide pool, or the one a
/// standalone Controller owns) via a single self-requeueing drain task:
/// at most one drain task is ever in flight, which preserves the strict
/// single-writer FIFO ordering per file, and spans land on this
/// materializer's own "materializer-<k>" track regardless of which lane
/// executes the drain.
class Materializer {
 public:
  /// `pool` (not owned) must outlive this object. `trace` (optional, not
  /// owned) receives a "materialize" span per completed write on this
  /// materializer's track ("materializer-<k>"), and a "retry" instant per
  /// retried write, each stamped with `trace_job_id` (the "job" arg).
  Materializer(storage::ThrottledDisk* disk, LanePool& pool,
               obs::TraceRecorder* trace = nullptr,
               std::uint64_t trace_job_id = 0);
  /// Waits for every queued write to finish.
  ~Materializer();

  Materializer(const Materializer&) = delete;
  Materializer& operator=(const Materializer&) = delete;

  /// Queues `table` for persistence under `name`; the returned future
  /// resolves when the write has completed (or throws on failure).
  std::shared_future<void> Enqueue(std::string name,
                                   engine::TablePtr table);

  /// Blocks until every queued write has finished.
  void Drain();

  /// Retry policy for failed writes: transient failures (fault::
  /// IsTransient) are retried up to `retry_limit` times with capped
  /// exponential backoff before the task's future fails. `cancel`
  /// (optional, not owned) suppresses retries once the owning job is
  /// cancelled; `retry_counter` (optional, not owned) accumulates
  /// attempts consumed. Call before the first Enqueue.
  void SetRetryPolicy(int retry_limit, double retry_backoff_ms,
                      const CancelToken* cancel,
                      std::atomic<std::int64_t>* retry_counter = nullptr);

  /// Hook invoked (from the draining lane) with the table name when a
  /// write permanently fails, *before* the task's future is failed —
  /// the caller's chance to quarantine optimistic publishes of that
  /// output. Call before the first Enqueue. Must not throw.
  void SetWriteFailureHook(std::function<void(const std::string&)> hook);

 private:
  struct Task {
    std::string name;
    engine::TablePtr table;
    std::promise<void> done;
  };

  /// Drain-task body: writes queued tasks FIFO until the queue is empty,
  /// then retires (Enqueue schedules a fresh one as needed).
  void DrainOnPool();
  /// Executes one write and settles its promise.
  void WriteOne(Task task);

  storage::ThrottledDisk* disk_;
  LanePool& pool_;
  obs::TraceRecorder* trace_;  // not owned; may be null
  std::uint64_t trace_job_id_;
  std::string track_;          // "materializer-<k>" trace track
  int retry_limit_ = 0;
  double retry_backoff_ms_ = 1.0;
  const CancelToken* cancel_ = nullptr;  // not owned; may be null
  std::atomic<std::int64_t>* retry_counter_ = nullptr;  // not owned
  std::function<void(const std::string&)> write_failure_hook_;
  std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::deque<Task> queue_;
  /// A drain task has been submitted and not yet retired: some write is
  /// queued or in progress.
  bool drain_active_ = false;
};

struct ControllerOptions {
  /// Memory Catalog size in bytes.
  std::int64_t budget = 64LL * 1024 * 1024;
  /// If false, flagged outputs are written synchronously after creation
  /// (ablation; true reproduces S/C).
  bool background_materialize = true;
  /// Maximum number of DAG nodes of one run executing concurrently
  /// (intra-job lanes). 1 — the default — is the paper's sequential
  /// Controller: the coordinator thread is the run's only lane and
  /// executes then publishes each node in plan order. Values > 1 execute
  /// independent nodes on LanePool lanes while flagged outputs are still
  /// published to the Memory Catalog in optimized order; node stats,
  /// catalog hit/miss counts and peak memory match the 1-lane run.
  int max_parallel_nodes = 1;
  /// Service-wide executor pool the run borrows its execution lanes,
  /// morsel helpers and Materializer drain from (not owned; must outlive
  /// the Controller's runs). When null, the Controller owns one pool of
  /// capacity max(1, max_parallel_nodes) for its whole lifetime. The
  /// RefreshService always supplies its shared pool so steady-state jobs
  /// pay zero thread construction.
  LanePool* lane_pool = nullptr;
  /// Cross-job shared residency layer. When set, the run's Memory
  /// Catalog becomes a per-job view over this content-keyed
  /// SharedCatalog: node names are bound to content fingerprints
  /// (graph::FingerprintNodes), flagged outputs are published under
  /// their fingerprint as the relaxed-publish replay enters them into
  /// the catalog (unflagged outputs at their publish slot), inputs
  /// resident from other jobs are pinned at dispatch and served at
  /// memory speed, and a node whose own output is already resident is
  /// reused outright instead of recomputed. Not owned; must outlive the
  /// runs. Do not combine with ProfileAndAnnotate — reused nodes report
  /// zero compute, which would corrupt the profile.
  storage::SharedCatalog* shared_catalog = nullptr;
  /// Salt mixed into the content fingerprints (a data epoch): bump it to
  /// invalidate every cross-job match, e.g. after base tables change.
  std::uint64_t shared_epoch = 0;
  /// Precomputed graph::FingerprintNodes(graph, shared_epoch) for the
  /// workload about to run (the RefreshService computes them once for
  /// its residency snapshot). Not owned; must outlive the run and match
  /// the graph — mismatches are ignored and recomputed.
  const std::vector<std::uint64_t>* node_fingerprints = nullptr;
  /// Observes cross-job pin lifecycle events (content key, bytes,
  /// pinned). The RefreshService charges pinned shared bytes to the
  /// reading tenant's quota through this hook.
  storage::MemoryCatalog::SharedPinListener shared_pin_listener;
  /// Observability trace recorder. When set (and enabled), the run emits
  /// spans at every execution boundary — per-node execute (on the lane
  /// track that ran it, with read/compute/write args), the in-plan-order
  /// publish replay, and Materializer writes — rendering in
  /// chrome://tracing as a per-lane occupancy timeline. Not owned; must
  /// outlive the runs. Null (the default) keeps the hot path span-free.
  obs::TraceRecorder* trace = nullptr;
  /// Job id stamped into every span this run emits (the "job" arg), so a
  /// multi-job service trace can be sliced per job. 0 for standalone
  /// runs.
  std::uint64_t trace_job_id = 0;
  /// Cooperative cancellation token (not owned; must outlive the run).
  /// When set, the run polls it at every stage-dispatch, node-execute,
  /// morsel-claim, and Materializer-retry boundary and unwinds with
  /// RunReport::cancelled within one such boundary of the token
  /// latching. Null (the default) keeps the hot path probe-free.
  const CancelToken* cancel = nullptr;
  /// Seeded fault injector probed at Site::kNodeExecute before each node
  /// attempt (disk sites are wired on the ThrottledDisk itself). Not
  /// owned; nullptr disables.
  fault::FaultInjector* faults = nullptr;
  /// Per-node retries for transient-classified failures (injected
  /// transient faults, or any exception deriving fault::TransientTag).
  /// 0 — the default — preserves strict fail-fast semantics: any node or
  /// materialization failure aborts the run on first occurrence.
  int retry_limit = 0;
  /// Base backoff between retry attempts, doubling per attempt and
  /// capped at 64x (so misconfigured limits cannot sleep a lane for
  /// minutes). Cancellation interrupts the backoff.
  double retry_backoff_ms = 1.0;
};

/// Per-node statistics from a real refresh run.
struct NodeRunStats {
  std::string name;
  double read_seconds = 0.0;     // time inside disk reads
  double compute_seconds = 0.0;  // plan execution minus reads
  double write_seconds = 0.0;    // blocking write time
  bool output_in_memory = false;
  std::int64_t output_bytes = 0;
  std::uint64_t output_rows = 0;
  /// Antichain stage of the node under the run's order (0-based).
  std::int32_t stage = 0;
  /// The node was not executed: its output was already resident in the
  /// cross-job SharedCatalog and was reused at memory speed.
  bool reused_cross_job = false;
  /// Transient-failure retries this node consumed before succeeding.
  std::int32_t retries = 0;
};

struct RunReport {
  bool ok = false;
  std::string error;
  /// The run unwound cooperatively because its cancel token latched
  /// (explicit cancel or deadline — see cancel_reason). Cleanup is
  /// complete either way: budget-visible catalog state, shared pins, and
  /// reservations are all released by the time the report returns.
  bool cancelled = false;
  CancelReason cancel_reason = CancelReason::kNone;
  /// Transient-failure retries consumed across all nodes and
  /// materializations (0 in fail-fast mode).
  std::int64_t node_retries = 0;
  double wall_seconds = 0.0;
  std::int64_t peak_memory = 0;
  /// Memory Catalog budget this run actually executed under (equals the
  /// controller's configured budget unless an external grant overrode it).
  std::int64_t budget = 0;
  /// Input resolutions served from the Memory Catalog vs. falling through
  /// to external storage.
  std::int64_t catalog_hits = 0;
  std::int64_t catalog_misses = 0;
  /// Execution lanes the run actually used (min of max_parallel_nodes and
  /// the widest antichain).
  int parallel_lanes = 1;
  /// Antichain stages of the executed order.
  std::int32_t num_stages = 0;
  /// Dispatch attempts denied by Memory-Catalog reservation backpressure
  /// (0 at one lane, which reserves nothing): how often concurrent lanes
  /// were held back to keep in-flight flagged outputs within the budget.
  std::int64_t reserve_denials = 0;
  /// Nodes executed inline on the coordinator thread instead of a lane:
  /// below-threshold nodes, or every node of a 1-lane run.
  std::int64_t inlined_nodes = 0;
  /// Interior morsel tasks executed by fanned-out operators across the
  /// run (0 when every node ran single-morsel). Counts all participants
  /// of each fan-out, caller and helper lanes alike.
  std::int64_t morsel_tasks = 0;
  /// Resolutions and whole-node reuses served from the cross-job
  /// SharedCatalog (0 without one; subset of catalog_hits).
  std::int64_t cross_job_hits = 0;
  /// Bytes those cross-job hits served in place of disk reads or
  /// recomputation.
  std::int64_t cross_job_bytes_saved = 0;
  std::vector<NodeRunStats> nodes;  // in publish (= plan) order

  double TotalReadSeconds() const;
  double TotalComputeSeconds() const;
  double TotalWriteSeconds() const;
  /// Fraction of input resolutions served at memory speed (0 when the run
  /// resolved no inputs).
  double CatalogHitRate() const;
};

/// The S/C Controller (paper §III-B): executes an MV refresh run against
/// the engine + storage substrate following the Optimizer's plan. All MVs
/// are materialized to external storage exactly as defined; flagged nodes
/// are additionally kept in the Memory Catalog until their last consumer
/// finishes, with their disk write running in the background.
///
/// Every run executes on the stage-scheduled runtime: a StageScheduler
/// derives antichain stages from the optimizer's total order and
/// dispatches ready nodes (all DAG parents available), in order-position
/// priority, to lanes of a LanePool (the service's shared pool, or the
/// one this Controller owns). At one lane the coordinator thread is the
/// only lane: it executes and publishes each node in plan order, exactly
/// the paper's sequential Controller. Flagged outputs are always
/// *published* to the Memory Catalog strictly in the optimized order —
/// the publish step replays the 1-lane Put / lazy-release sequence, so
/// the catalog's budget behaviour (and the paper's residency
/// semantics) are independent of the lane count; the catalog's
/// reservation API additionally backpressures dispatch so concurrently
/// executing flagged nodes cannot jointly overshoot the budget while
/// their outputs are in flight.
///
/// Node outputs enter residency with their string columns
/// dictionary-encoded wherever that is smaller, so budgets, grants and
/// profiled sizes all count the compressed footprint. In runs with more
/// than one lane, profiled nodes estimated at no more than a millisecond
/// execute inline on the coordinator thread, and nodes estimated well
/// above the morsel target split their hash-join and aggregate passes
/// into morsels run by idle lanes (results are bit-identical).
///
/// Availability is decoupled from that residency replay (the relaxed
/// publish protocol): an unflagged node's children become dispatchable
/// the moment its external write completes, and dispatch itself happens
/// from lane-completion callbacks, so the in-order replay — which can
/// block on materializations during lazy release — never stalls
/// execution of independent work. The Materializer keeps its
/// single-writer channel regardless of lanes.
class Controller {
 public:
  Controller(storage::ThrottledDisk* disk, ControllerOptions options);

  /// Persists base tables to external storage (ingestion step).
  void LoadBaseTables(
      const std::map<std::string, engine::TablePtr>& tables);

  /// Executes the workload under `plan`. Returns a failed report (ok ==
  /// false) if the plan is invalid or the Memory Catalog budget would be
  /// violated.
  RunReport Run(const workload::MvWorkload& wl, const opt::Plan& plan);

  /// Like Run(), but executes against an externally-granted Memory Catalog
  /// budget instead of the configured one. This is the entry point for the
  /// Refresh Service: a BudgetBroker arbitrates the global catalog across
  /// concurrent jobs and hands each run its funded slice. `stages` may
  /// supply a precomputed DecomposeStages(plan.order) (the service caches
  /// it next to the plan); when null — or when it does not match the plan
  /// — the decomposition is computed here.
  RunReport RunWithBudget(const workload::MvWorkload& wl,
                          const opt::Plan& plan, std::int64_t budget,
                          const opt::StageDecomposition* stages = nullptr);

  /// Executes with the no-optimization baseline plan (topological order,
  /// nothing flagged).
  RunReport RunUnoptimized(const workload::MvWorkload& wl);

  /// Runs unoptimized while recording execution metadata (§III-A) into the
  /// workload's graph: output sizes, compute seconds, base input bytes,
  /// and speedup scores derived from the disk profile (its latency and
  /// bandwidths; no per-table overheads). This is the
  /// "observed performance metrics from past runs" the Optimizer consumes.
  RunReport ProfileAndAnnotate(workload::MvWorkload* wl);

  /// The pool every run executes on: options.lane_pool, or the one this
  /// Controller owns.
  LanePool& lane_pool() { return *pool_; }

 private:
  storage::ThrottledDisk* disk_;
  ControllerOptions options_;
  /// Set when options.lane_pool is null; lanes spawn on first use.
  std::unique_ptr<LanePool> owned_pool_;
  LanePool* pool_;
};

}  // namespace sc::runtime

#endif  // SC_RUNTIME_CONTROLLER_H_
