#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/lane_pool.h"
#include "service/service.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::runtime {
namespace {

void WaitFor(const std::function<bool()>& done, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(LanePoolTest, SpawnsLanesOnDemandUpToCapacity) {
  LanePool pool(3);
  EXPECT_EQ(pool.capacity(), 3);
  EXPECT_EQ(pool.live_lanes(), 0);  // lazy: no thread until work arrives
  EXPECT_EQ(pool.threads_started(), 0);

  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  WaitFor([&] { return done.load() == 64; });
  EXPECT_EQ(done.load(), 64);
  EXPECT_LE(pool.threads_started(), 3);
  EXPECT_EQ(pool.tasks_completed(), 64);
}

TEST(LanePoolTest, ThrowingTaskIsCapturedNotFatal) {
  LanePool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    if (i % 4 == 0) {
      pool.Submit([] { throw std::runtime_error("task bug"); });
    } else {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }
  // The pool survives escaped exceptions (no std::terminate), keeps
  // executing queued work, and reports the failures on a counter.
  WaitFor([&] { return pool.tasks_failed() == 4 && done.load() == 12; });
  EXPECT_EQ(pool.tasks_failed(), 4);
  EXPECT_EQ(done.load(), 12);
  EXPECT_EQ(pool.tasks_completed(), 16);  // failed tasks still complete
}

TEST(LanePoolTest, ReusesLanesAcrossBursts) {
  LanePool pool(4);
  std::atomic<int> done{0};
  for (int burst = 0; burst < 5; ++burst) {
    const int target = (burst + 1) * 16;
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    WaitFor([&] { return done.load() == target; });
    ASSERT_EQ(done.load(), target);
  }
  // Five back-to-back bursts, zero thread churn after the first.
  EXPECT_LE(pool.threads_started(), 4);
}

TEST(LanePoolTest, IdleShutdownStopsLanesAndRespawnsOnDemand) {
  LanePoolOptions options;
  options.capacity = 2;
  options.idle_shutdown_seconds = 0.05;
  LanePool pool(options);

  std::atomic<int> done{0};
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Submit([&done] { done.fetch_add(1); });
  WaitFor([&] { return done.load() == 2; });
  const std::int64_t started = pool.threads_started();
  EXPECT_GE(started, 1);

  // Idle lanes exit after the shutdown horizon…
  WaitFor([&] { return pool.live_lanes() == 0; });
  EXPECT_EQ(pool.live_lanes(), 0);

  // …and the pool respawns on demand.
  pool.Submit([&done] { done.fetch_add(1); });
  WaitFor([&] { return done.load() == 3; });
  EXPECT_EQ(done.load(), 3);
  EXPECT_GT(pool.threads_started(), started);
}

TEST(LanePoolTest, DestructorRunsEveryQueuedTask) {
  std::atomic<int> done{0};
  {
    LanePool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(done.load(), 32);
}

// Borrow/return race coverage (runs under TSAN in CI): many threads
// submitting while lanes idle out and respawn concurrently.
TEST(LanePoolTest, ConcurrentSubmitStress) {
  LanePoolOptions options;
  options.capacity = 4;
  options.idle_shutdown_seconds = 0.001;  // force constant lane churn
  LanePool pool(options);
  std::atomic<int> done{0};
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.Submit([&done] { done.fetch_add(1); });
        if (i % 10 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  // A lane counts a task only after it returns and the lane re-takes the
  // pool lock, so the counter may trail `done` briefly: wait for both.
  WaitFor([&] {
    return done.load() == kProducers * kPerProducer &&
           pool.tasks_completed() == kProducers * kPerProducer;
  });
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
  EXPECT_EQ(pool.tasks_completed(), kProducers * kPerProducer);
}

// The service-level reuse guarantee: back-to-back RefreshService jobs
// execute on the same service-wide pool, with zero thread construction
// for the second job.
TEST(LanePoolTest, BackToBackServiceJobsReuseLanes) {
  const std::string dir =
      testing::TempDir() + "/sc_lane_pool_service";
  std::filesystem::remove_all(dir);
  storage::DiskProfile profile;
  profile.throttle = false;
  storage::ThrottledDisk disk(dir, profile);

  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  {
    runtime::Controller loader(&disk, runtime::ControllerOptions{});
    loader.LoadBaseTables(workload::GenerateTpcdsData(data_options));
  }
  auto wl = std::make_shared<workload::MvWorkload>(
      workload::BuildWideSynthetic(6));

  service::ServiceOptions options;
  options.num_workers = 4;
  options.max_intra_job_lanes = 4;
  service::RefreshService service(&disk, options);

  service::RefreshJobSpec spec;
  spec.workload = wl;
  const service::JobResult first = service.Submit(spec).get();
  ASSERT_TRUE(first.report.ok) << first.report.error;
  EXPECT_GT(first.report.parallel_lanes, 1);
  const std::int64_t started = service.lane_pool().threads_started();
  EXPECT_GE(started, 1);
  EXPECT_LE(started, 4);

  for (int i = 0; i < 3; ++i) {
    const service::JobResult next = service.Submit(spec).get();
    ASSERT_TRUE(next.report.ok) << next.report.error;
    EXPECT_GT(next.report.parallel_lanes, 1);
  }
  EXPECT_EQ(service.lane_pool().threads_started(), started);
}

TEST(LanePoolTest, BusySecondsMonotonicUnderConcurrentReaders) {
  // The PR-6 busy-seconds race fix: lanes fold their task time into one
  // atomic before re-taking the pool lock, so concurrent completions
  // never lose an increment and a monitoring reader always sees a
  // monotonically non-decreasing value.
  LanePool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<bool> regressed{false};
  std::thread reader([&pool, &stop, &regressed] {
    double last = 0.0;
    while (!stop.load()) {
      const double now = pool.busy_seconds();
      if (now < last) regressed.store(true);
      last = now;
      std::this_thread::yield();
    }
  });

  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }
  WaitFor([&done] { return done.load() == kTasks; });
  stop.store(true);
  reader.join();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_FALSE(regressed.load());
  // 200 tasks x 200us of sleep each: the accumulated busy time must at
  // least cover the sleeps (scheduling overhead only adds to it).
  EXPECT_GE(pool.busy_seconds(), kTasks * 200e-6 * 0.9);
  EXPECT_EQ(pool.tasks_completed(), kTasks);
}

}  // namespace
}  // namespace sc::runtime
