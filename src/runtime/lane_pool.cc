#include "runtime/lane_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/clock.h"
#include "obs/trace.h"

namespace sc::runtime {

LanePool::LanePool(LanePoolOptions options) : options_([&] {
  LanePoolOptions o = options;
  o.capacity = std::max(1, o.capacity);
  return o;
}()) {}

LanePool::~LanePool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Lanes drain the queue before exiting, so joining here runs every
  // queued task before the pool stops.
  for (Lane& lane : lanes_) {
    if (lane.thread.joinable()) lane.thread.join();
  }
}

void LanePool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ReapLocked();
    // Spawn when the backlog exceeds the lanes already waiting for it —
    // not merely when no lane is idle: under burst submission the idle
    // lane only absorbs one task, and the rest must not serialize behind
    // it while capacity sits unused.
    if (queue_.size() > static_cast<std::size_t>(idle_) &&
        live_ < options_.capacity && !stopping_) {
      lanes_.emplace_back();
      auto self = std::prev(lanes_.end());
      ++live_;
      const int lane_index = static_cast<int>(threads_started_++);
      self->thread =
          std::thread([this, self, lane_index] { Loop(self, lane_index); });
    }
  }
  cv_.notify_one();
}

void LanePool::ReapLocked() {
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    if (it->exited) {
      if (it->thread.joinable()) it->thread.join();
      it = lanes_.erase(it);
    } else {
      ++it;
    }
  }
}

void LanePool::Loop(std::list<Lane>::iterator self, int lane_index) {
  // Lane identity for the observability layer: node spans emitted while
  // this lane executes land on its own trace track ("lane-<n>"), which
  // renders the trace as a lane-occupancy timeline.
  obs::SetThreadTrack("lane-" + std::to_string(lane_index));
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++idle_;
    bool idle_timeout = false;
    while (queue_.empty() && !stopping_ && !idle_timeout) {
      if (options_.idle_shutdown_seconds > 0) {
        const auto wait = std::chrono::duration<double>(
            options_.idle_shutdown_seconds);
        if (cv_.wait_for(lock, wait) == std::cv_status::timeout) {
          idle_timeout = queue_.empty() && !stopping_;
        }
      } else {
        cv_.wait(lock);
      }
    }
    --idle_;
    if (queue_.empty()) break;  // stopping, or idled out with no work
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    const double start = MonotonicSeconds();
    try {
      task();
    } catch (...) {
      // A lane is shared infrastructure: an exception escaping one job's
      // task must not std::terminate the whole service. Count it and keep
      // the lane alive; the submitter's own error plumbing (run-state
      // error strings, promises) is the intended reporting channel.
      tasks_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    const double elapsed = MonotonicSeconds() - start;
    // Accumulate busy time lock-free, before re-taking the pool lock:
    // concurrent lane completions each fetch_add their own elapsed time,
    // so no increment can be lost and busy_seconds() readers (benches,
    // the metrics registry) never contend with the lanes.
    busy_nanos_.fetch_add(static_cast<std::int64_t>(elapsed * 1e9),
                          std::memory_order_relaxed);
    lock.lock();
    ++tasks_completed_;
  }
  --live_;
  // Mark for reaping (Submit joins exited lanes); the destructor joins
  // whatever is left, so the handle is always collected exactly once.
  self->exited = true;
}

std::int64_t LanePool::threads_started() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_started_;
}

int LanePool::live_lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

int LanePool::idle_lanes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_;
}

std::int64_t LanePool::tasks_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_completed_;
}

}  // namespace sc::runtime
