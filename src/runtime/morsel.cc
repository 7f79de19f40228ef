#include "runtime/morsel.h"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "common/clock.h"
#include "common/str_util.h"
#include "runtime/lane_pool.h"

namespace sc::runtime {

LaneMorselRunner::LaneMorselRunner(LanePool* pool,
                                   obs::TraceRecorder* trace,
                                   std::uint64_t trace_job_id,
                                   std::string node_name,
                                   std::atomic<std::int64_t>* task_counter,
                                   const CancelToken* cancel)
    : pool_(pool),
      trace_(trace),
      trace_job_id_(trace_job_id),
      node_name_(std::move(node_name)),
      task_counter_(task_counter),
      cancel_(cancel) {}

namespace {

/// State shared between the caller and its helper tasks. Heap-allocated
/// (shared_ptr) so helpers that dequeue after Run() returned — possible
/// when the pool is busy — find only this, never the caller's dead
/// stack frame: they claim an index >= count and exit without touching
/// `fn`.
struct FanOutState {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  const CancelToken* cancel = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure; guarded by mutex

  /// Claims and runs morsels until none remain. Returns the number of
  /// morsels this participant executed. A latched cancel token turns
  /// every remaining claim into a skip: the morsel still counts toward
  /// `done` (so the caller's completion barrier terminates) but `fn` is
  /// not invoked, and CancelledError is recorded as the fan-out's error.
  std::size_t Drain() {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return ran;
      if (cancel != nullptr && cancel->cancelled()) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) {
          error = std::make_exception_ptr(CancelledError(cancel->reason()));
        }
      } else {
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
        }
        ++ran;
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void LaneMorselRunner::Run(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  if (task_counter_ != nullptr) {
    task_counter_->fetch_add(static_cast<std::int64_t>(count),
                             std::memory_order_relaxed);
  }
  auto state = std::make_shared<FanOutState>();
  state->count = count;
  state->fn = &fn;
  state->cancel = cancel_;

  // Helpers beyond the caller's own slot; extra submissions would only
  // churn the pool queue to find no work.
  const int cap = pool_->capacity();
  std::size_t helpers = cap > 1 ? static_cast<std::size_t>(cap - 1) : 0;
  if (helpers > count - 1) helpers = count - 1;
  obs::TraceRecorder* const trace =
      trace_ != nullptr && trace_->enabled() ? trace_ : nullptr;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool_->Submit([state, trace, job = trace_job_id_,
                   name = node_name_] {
      const double start = trace != nullptr ? MonotonicSeconds() : 0.0;
      const std::size_t ran = state->Drain();
      if (trace != nullptr && ran > 0) {
        trace->Complete(
            "morsel", name, start, MonotonicSeconds() - start,
            StrFormat("\"job\":%llu,\"morsels\":%llu",
                      static_cast<unsigned long long>(job),
                      static_cast<unsigned long long>(ran)));
      }
    });
  }

  // The caller participates unconditionally: progress never depends on
  // a helper getting a lane.
  state->Drain();
  if (state->done.load(std::memory_order_acquire) != count) {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == count;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sc::runtime
