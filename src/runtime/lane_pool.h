#ifndef SC_RUNTIME_LANE_POOL_H_
#define SC_RUNTIME_LANE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <mutex>
#include <thread>

namespace sc::runtime {

struct LanePoolOptions {
  /// Maximum number of lane threads alive at once. Submissions beyond the
  /// capacity queue FIFO until a lane frees.
  int capacity = 1;
  /// A lane that sits idle this long exits; the pool respawns lanes on
  /// demand. <= 0 keeps idle lanes alive until destruction.
  double idle_shutdown_seconds = 30.0;
};

/// Work-queue-backed executor pool behind the stage runtime's execution
/// lanes, morsel helpers and Materializer drains. A LanePool is
/// constructed once — by the RefreshService, or by a standalone
/// Controller for its whole lifetime — and reused by every run: lanes
/// spawn lazily on demand, stay alive between runs, and only exit after
/// `idle_shutdown_seconds` without work — so steady-state refresh traffic
/// pays zero thread construction per job.
///
/// The pool is deliberately dumb: each task (a DAG-node execution, a
/// morsel, a materializer drain) is picked up FIFO by whichever lane
/// frees first. All scheduling policy
/// (readiness, dispatch order, budget backpressure, per-job lane caps)
/// lives in the Controller's run loop, so one pool serves any number of
/// concurrently running jobs.
class LanePool {
 public:
  explicit LanePool(int capacity)
      : LanePool(LanePoolOptions{capacity}) {}
  explicit LanePool(LanePoolOptions options);
  /// Runs every queued task to completion, then joins the lanes.
  ~LanePool();

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// Queues `task` for execution on some lane, spawning one if none is
  /// idle and the pool is below capacity. Callers normally wrap their
  /// work and route errors through their own state; an exception that
  /// does escape a task is swallowed by the lane (counted in
  /// `tasks_failed()`) instead of taking the process down, because one
  /// job's bug must never std::terminate a pool shared by every tenant.
  void Submit(std::function<void()> task);

  int capacity() const { return options_.capacity; }
  /// Cumulative number of lane threads ever started — the thread-churn
  /// metric: steady-state reuse keeps this flat across jobs.
  std::int64_t threads_started() const;
  /// Lanes currently alive (idle or running a task).
  int live_lanes() const;
  /// Lanes currently parked waiting for work.
  int idle_lanes() const;
  std::int64_t tasks_completed() const;
  /// Tasks whose invocation let an exception escape. Always a bug in the
  /// submitter (the runtime routes errors through run state), surfaced
  /// as a counter so monitoring can alarm on it.
  std::int64_t tasks_failed() const {
    return tasks_failed_.load(std::memory_order_relaxed);
  }
  /// Cumulative seconds lanes spent executing tasks; together with a wall
  /// clock and the capacity this yields the lane-idle fraction. Lanes
  /// accumulate into one atomic the moment their task returns — before
  /// re-taking the pool lock — so concurrent completions can never lose
  /// an increment and monitoring reads never contend (the PR-6
  /// busy-seconds race fix; lane_pool_test asserts monotonicity under
  /// concurrent readers and TSAN covers the accumulation).
  double busy_seconds() const {
    return static_cast<double>(
               busy_nanos_.load(std::memory_order_relaxed)) /
           1e9;
  }

 private:
  struct Lane {
    std::thread thread;
    bool exited = false;
  };

  void Loop(std::list<Lane>::iterator self, int lane_index);
  /// Joins and erases lanes that exited (idle shutdown). Requires mutex_.
  void ReapLocked();

  const LanePoolOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::list<Lane> lanes_;
  bool stopping_ = false;
  int live_ = 0;
  int idle_ = 0;
  std::int64_t threads_started_ = 0;
  std::int64_t tasks_completed_ = 0;
  std::atomic<std::int64_t> busy_nanos_{0};
  std::atomic<std::int64_t> tasks_failed_{0};
};

}  // namespace sc::runtime

#endif  // SC_RUNTIME_LANE_POOL_H_
