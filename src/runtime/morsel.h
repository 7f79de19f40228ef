#ifndef SC_RUNTIME_MORSEL_H_
#define SC_RUNTIME_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "engine/morsel.h"
#include "obs/trace.h"
#include "runtime/cancel.h"

namespace sc::runtime {

class LanePool;

/// engine::MorselRunner on the service-wide LanePool: the runtime half of
/// morsel-driven intra-operator parallelism. One instance lives for the
/// duration of one node's ExecuteNode; each Run() fans an operator's
/// interior (hash build, probe morsels, partial-aggregate passes) across
/// idle lanes of the same pool that executes whole DAG nodes.
///
/// Deadlock-free by construction: the calling thread — often itself a
/// lane running the node — always participates in a shared atomic claim
/// loop, so every Run() completes even if no helper task ever gets a
/// lane (the pool is FIFO and may be saturated with node tasks).
/// Helpers submitted to the pool are pure acceleration: they claim
/// whatever morsels the caller has not reached yet, and late helpers
/// that arrive after all morsels are claimed touch only heap-allocated
/// shared state and exit.
class LaneMorselRunner : public engine::MorselRunner {
 public:
  /// `pool` must outlive the runner. `trace` (nullable) receives one
  /// "morsel" span per helper-executed morsel on the helper lane's own
  /// track — caller-executed morsels are already inside the node's span
  /// on the caller's track, so they emit nothing (per-track busy time in
  /// AnalyzeTrace stays a sum of disjoint spans). `task_counter`
  /// (nullable) accumulates the number of morsel tasks executed by
  /// fanned-out Run() calls (RunReport::morsel_tasks). `cancel`
  /// (nullable, not owned) is polled before every morsel claim: once it
  /// latches, remaining morsels are skipped (still counted complete so
  /// the fan-out barrier terminates) and Run() throws CancelledError.
  LaneMorselRunner(LanePool* pool, obs::TraceRecorder* trace,
                   std::uint64_t trace_job_id, std::string node_name,
                   std::atomic<std::int64_t>* task_counter,
                   const CancelToken* cancel = nullptr);

  void Run(std::size_t count,
           const std::function<void(std::size_t)>& fn) override;

 private:
  LanePool* pool_;
  obs::TraceRecorder* trace_;
  std::uint64_t trace_job_id_;
  std::string node_name_;
  std::atomic<std::int64_t>* task_counter_;
  const CancelToken* cancel_;
};

}  // namespace sc::runtime

#endif  // SC_RUNTIME_MORSEL_H_
