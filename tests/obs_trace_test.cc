#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "opt/optimizer.h"
#include "runtime/controller.h"
#include "service/service.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::obs {
namespace {

using service::JobResult;
using service::RefreshJobSpec;
using service::RefreshService;
using service::ServiceOptions;

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_obs_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Recorder primitives
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RecordsSpansAndInstants) {
  TraceRecorder recorder;
  recorder.Complete("job", "execute", 1.0, 0.5, "\"job\":7");
  recorder.Instant("budget", "grant", "\"bytes\":64");
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(recorder.event_count(), 2u);
  // Events() sorts by start time; the span was stamped at t=1.0 while
  // the instant used the live monotonic clock (far larger).
  EXPECT_EQ(events[0].category, "job");
  EXPECT_EQ(events[0].name, "execute");
  EXPECT_DOUBLE_EQ(events[0].start_seconds, 1.0);
  EXPECT_DOUBLE_EQ(events[0].dur_seconds, 0.5);
  EXPECT_FALSE(events[0].instant);
  EXPECT_EQ(events[0].args_json, "\"job\":7");
  EXPECT_EQ(events[1].category, "budget");
  EXPECT_TRUE(events[1].instant);
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorderOptions options;
  options.enabled = false;
  TraceRecorder recorder(options);
  EXPECT_FALSE(recorder.enabled());
  for (int i = 0; i < 100; ++i) {
    recorder.Complete("node", "n", 0.0, 1.0);
    recorder.Instant("budget", "grant");
  }
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.dropped(), 0);

  // Flipping the flag live starts recording without reconstruction.
  recorder.set_enabled(true);
  recorder.Instant("budget", "grant");
  EXPECT_EQ(recorder.event_count(), 1u);
}

TEST(TraceRecorderTest, RingWrapDropsOldestAndCounts) {
  TraceRecorderOptions options;
  // Capacities are clamped to at least 16 per thread.
  options.per_thread_capacity = 16;
  TraceRecorder recorder(options);
  for (int i = 0; i < 40; ++i) {
    recorder.Complete("node", "n" + std::to_string(i),
                      static_cast<double>(i), 0.1);
  }
  EXPECT_EQ(recorder.event_count(), 16u);
  EXPECT_EQ(recorder.dropped(), 24);
  // The survivors are the newest sixteen.
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().name, "n24");
  EXPECT_EQ(events.back().name, "n39");
}

TEST(TraceRecorderTest, EventsCarryThreadTrackNames) {
  TraceRecorder recorder;
  std::thread lane([&recorder] {
    SetThreadTrack("lane-7");
    recorder.Complete("node", "on-lane", 0.0, 1.0);
  });
  lane.join();
  std::thread unnamed([&recorder] {
    recorder.Complete("node", "anonymous", 2.0, 1.0);
  });
  unnamed.join();
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].track, "lane-7");
  // Threads that never set a track still get a stable fallback row.
  EXPECT_EQ(events[1].track.rfind("thread-", 0), 0u) << events[1].track;
}

TEST(TraceRecorderTest, ConcurrentEmittersLoseNothing) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      SetThreadTrack("emitter-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Complete("node", "n", static_cast<double>(i), 0.001);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.event_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.dropped(), 0);
}

// ---------------------------------------------------------------------------
// Chrome trace round-trip
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, WriteLoadRoundTrip) {
  TraceRecorder recorder;
  recorder.Complete("job", "execute", 10.0, 2.5, "\"job\":3");
  recorder.Complete("publish", "v1", 11.0, 0.25,
                    "\"job\":3,\"flagged\":true");
  recorder.Instant("stage", "dispatch-stage-1", "", 10.5);
  std::ostringstream out;
  WriteChromeTrace(recorder, out);

  std::istringstream in(out.str());
  std::vector<TraceEvent> loaded;
  std::string error;
  ASSERT_TRUE(LoadChromeTrace(in, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 3u);
  std::sort(loaded.begin(), loaded.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_seconds < b.start_seconds;
            });
  // Timestamps are rebased to the earliest event, so compare offsets.
  EXPECT_EQ(loaded[0].category, "job");
  EXPECT_EQ(loaded[0].name, "execute");
  EXPECT_NEAR(loaded[0].start_seconds, 0.0, 1e-6);
  EXPECT_NEAR(loaded[0].dur_seconds, 2.5, 1e-6);
  EXPECT_EQ(loaded[0].args_json, "\"job\":3");
  EXPECT_EQ(loaded[1].category, "stage");
  EXPECT_TRUE(loaded[1].instant);
  EXPECT_NEAR(loaded[1].start_seconds, 0.5, 1e-6);
  EXPECT_EQ(loaded[2].category, "publish");
  EXPECT_NEAR(loaded[2].start_seconds, 1.0, 1e-6);
  EXPECT_EQ(loaded[2].args_json, "\"job\":3,\"flagged\":true");
  // All three were emitted from this (same) thread: one shared track.
  EXPECT_EQ(loaded[0].track, loaded[2].track);
}

TEST(ChromeTraceTest, RejectsMalformedInput) {
  std::istringstream in("this is not json");
  std::vector<TraceEvent> events;
  std::string error;
  EXPECT_FALSE(LoadChromeTrace(in, &events, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Controller span ordering (1 lane vs 4 lanes)
// ---------------------------------------------------------------------------

struct TracedRun {
  runtime::RunReport report;
  std::vector<TraceEvent> events;
};

TracedRun RunControllerTraced(const std::string& tag, int lanes) {
  storage::ThrottledDisk disk(FreshDir(tag), FastDisk());
  workload::MvWorkload wl = workload::BuildIo1();
  {
    runtime::Controller profiler(&disk, runtime::ControllerOptions{});
    workload::DataGenOptions data_options;
    data_options.scale = 0.03;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
    EXPECT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);
  }
  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto optimized = opt::Optimizer{}.Optimize(wl.graph, budget);
  // Profile every node far above the inline threshold so each one goes
  // to a LanePool lane and lane tracks appear even for the cheap nodes
  // the dispatcher would inline. (At one lane the coordinator runs every
  // node regardless.)
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    wl.graph.mutable_node(v).compute_seconds = 1.0;
  }

  TraceRecorder recorder;
  runtime::ControllerOptions options;
  options.budget = budget;
  options.max_parallel_nodes = lanes;
  options.trace = &recorder;
  options.trace_job_id = 42;
  runtime::Controller controller(&disk, options);
  TracedRun run;
  run.report = controller.Run(wl, optimized.plan);
  run.events = recorder.Events();
  return run;
}

std::vector<std::string> NamesInCategory(
    const std::vector<TraceEvent>& events, const std::string& category) {
  std::vector<std::string> names;
  for (const auto& event : events) {
    if (event.category == category && !event.instant) {
      names.push_back(event.name);
    }
  }
  return names;
}

TEST(ControllerTraceTest, SpanOrderingMatchesPublishOrderAcrossLanes) {
  const TracedRun one = RunControllerTraced("lanes1", 1);
  const TracedRun four = RunControllerTraced("lanes4", 4);
  ASSERT_TRUE(one.report.ok) << one.report.error;
  ASSERT_TRUE(four.report.ok) << four.report.error;
  EXPECT_GT(four.report.parallel_lanes, 1);

  // Every executed node emitted exactly one node span and one publish
  // span, regardless of lane count.
  const std::size_t num_nodes = one.report.nodes.size();
  ASSERT_GT(num_nodes, 0u);
  EXPECT_EQ(NamesInCategory(one.events, "node").size(), num_nodes);
  EXPECT_EQ(NamesInCategory(four.events, "node").size(), num_nodes);

  // The publish replay is strictly in plan order on both runtimes (the
  // relaxed-publish contract): publish spans sorted by start time must
  // match the report's node order — which is itself publish order.
  auto publish_order = [](const TracedRun& run) {
    return NamesInCategory(run.events, "publish");
  };
  std::vector<std::string> expected;
  for (const auto& node : one.report.nodes) expected.push_back(node.name);
  EXPECT_EQ(publish_order(one), expected);
  std::vector<std::string> expected_four;
  for (const auto& node : four.report.nodes) {
    expected_four.push_back(node.name);
  }
  EXPECT_EQ(publish_order(four), expected_four);
  // Same plan, same publish order.
  EXPECT_EQ(expected, expected_four);

  // At one lane the coordinator is the only lane: every node span sits
  // on the calling thread's track, none on a pool lane.
  std::set<std::string> one_tracks;
  for (const auto& event : one.events) {
    if (event.category == "node" && !event.instant) {
      one_tracks.insert(event.track);
    }
  }
  ASSERT_EQ(one_tracks.size(), 1u);
  EXPECT_NE(one_tracks.begin()->rfind("lane-", 0), 0u)
      << *one_tracks.begin();
  EXPECT_EQ(one.report.inlined_nodes, static_cast<std::int64_t>(num_nodes));

  // Node spans nest inside the run: every span carries the job id arg
  // and a track; the 4-lane run actually used lane tracks.
  std::set<std::string> four_tracks;
  for (const auto& event : four.events) {
    if (event.category == "node" && !event.instant) {
      EXPECT_NE(event.args_json.find("\"job\":42"), std::string::npos);
      four_tracks.insert(event.track);
    }
  }
  const bool any_lane_track =
      std::any_of(four_tracks.begin(), four_tracks.end(),
                  [](const std::string& track) {
                    return track.rfind("lane-", 0) == 0;
                  });
  EXPECT_TRUE(any_lane_track)
      << "expected lane-* tracks among " << four_tracks.size();

  // Background writes belong to the job too: every materialize span
  // carries the job id, so a multi-job trace can attribute them.
  for (const TracedRun* run : {&one, &four}) {
    int materialize_spans = 0;
    for (const auto& event : run->events) {
      if (event.category == "materialize") {
        ++materialize_spans;
        EXPECT_NE(event.args_json.find("\"job\":42"), std::string::npos)
            << event.name << " " << event.args_json;
      }
    }
    EXPECT_GT(materialize_spans, 0);
  }

  // Parallel dispatch emits stage-advance instants.
  bool any_stage_instant = false;
  for (const auto& event : four.events) {
    if (event.category == "stage" && event.instant) {
      any_stage_instant = true;
    }
  }
  EXPECT_TRUE(any_stage_instant);
}

// ---------------------------------------------------------------------------
// End-to-end service trace (the ISSUE acceptance scenario)
// ---------------------------------------------------------------------------

TEST(ServiceTraceTest, FourTenantFourLaneRunReconstructs) {
  storage::ThrottledDisk disk(FreshDir("service"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  {
    runtime::Controller profiler(&disk, runtime::ControllerOptions{});
    workload::DataGenOptions data_options;
    data_options.scale = 0.03;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
    ASSERT_TRUE(profiler.ProfileAndAnnotate(wl.get()).ok);
  }

  TraceRecorder recorder;
  ServiceOptions options;
  options.num_workers = 8;
  options.max_intra_job_lanes = 4;
  options.global_budget = 32LL * 1024 * 1024;
  options.trace = &recorder;
  RefreshService service(&disk, options);

  constexpr int kJobs = 8;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i % 4);
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) {
    const JobResult result = future.get();
    ASSERT_TRUE(result.report.ok) << result.report.error;
  }
  service.Shutdown();

  const auto events = recorder.Events();
  const TraceAnalysis analysis = AnalyzeTrace(events);

  // Every phase a service run crosses left at least one span.
  for (const char* category :
       {"job", "budget", "plan", "node", "publish"}) {
    EXPECT_GT(analysis.category_counts.count(category)
                  ? analysis.category_counts.at(category)
                  : 0,
              0)
        << category;
  }

  // Per-job breakdown: all jobs reconstructed, each with execution time
  // and all four tenants represented.
  EXPECT_EQ(analysis.jobs.size(), static_cast<std::size_t>(kJobs));
  std::set<std::string> tenants;
  for (const auto& [job_id, breakdown] : analysis.jobs) {
    EXPECT_GT(job_id, 0u);
    EXPECT_GT(breakdown.executing_seconds, 0.0) << "job " << job_id;
    EXPECT_GE(breakdown.queued_seconds, 0.0);
    EXPECT_GE(breakdown.budget_wait_seconds, 0.0);
    tenants.insert(breakdown.tenant);
  }
  EXPECT_EQ(tenants.size(), 4u);

  // Track occupancy: worker tracks accumulated busy time inside the
  // trace wall span.
  EXPECT_GT(analysis.wall_seconds, 0.0);
  bool any_worker_track = false;
  for (const auto& [track, busy] : analysis.track_busy_seconds) {
    EXPECT_GE(busy, 0.0);
    // Busy time sums span durations, and a worker's job/node/publish
    // spans nest — so utilization can exceed 1; it just has to be a
    // sane finite number.
    EXPECT_LT(analysis.TrackUtilization(track), 100.0) << track;
    if (track.rfind("worker-", 0) == 0) {
      any_worker_track = true;
      EXPECT_GT(busy, 0.0) << track;
    }
  }
  EXPECT_TRUE(any_worker_track);

  // The registry mirrored the run: jobs counted per tenant, component
  // gauges live, and the whole thing renders as Prometheus text.
  const auto snapshot = service.registry().Snapshot();
  double jobs_ok = 0.0;
  for (const auto& [key, value] : snapshot) {
    if (key.rfind("sc_jobs_total", 0) == 0 &&
        key.find("status=\"ok\"") != std::string::npos) {
      jobs_ok += value;
    }
  }
  EXPECT_DOUBLE_EQ(jobs_ok, static_cast<double>(kJobs));
  EXPECT_GT(snapshot.at("sc_lane_pool_tasks_completed"), 0.0);
  const std::string text = service.PrometheusText();
  EXPECT_NE(text.find("# TYPE sc_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("sc_job_exec_seconds_bucket"), std::string::npos);
}

TEST(ServiceTraceTest, CallerRecorderExportsLoadableFileAfterShutdown) {
  storage::ThrottledDisk disk(FreshDir("tracepath"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  {
    runtime::Controller profiler(&disk, runtime::ControllerOptions{});
    workload::DataGenOptions data_options;
    data_options.scale = 0.03;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
    ASSERT_TRUE(profiler.ProfileAndAnnotate(wl.get()).ok);
  }
  const std::string trace_path =
      testing::TempDir() + "/sc_obs_service_trace.json";
  std::filesystem::remove(trace_path);
  TraceRecorder recorder;
  {
    ServiceOptions options;
    options.num_workers = 2;
    options.global_budget = 16LL * 1024 * 1024;
    options.trace = &recorder;
    RefreshService service(&disk, options);
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "solo";
    ASSERT_TRUE(service.Submit(spec).get().report.ok);
    service.Shutdown();
  }
  // Every span is recorded once the workers have joined.
  ASSERT_TRUE(WriteChromeTraceFile(recorder, trace_path));
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(LoadChromeTraceFile(trace_path, &events, &error)) << error;
  const TraceAnalysis analysis = AnalyzeTrace(events);
  EXPECT_EQ(analysis.jobs.size(), 1u);
  EXPECT_GT(analysis.jobs.begin()->second.executing_seconds, 0.0);
}

TEST(ServiceTraceTest, TenantWithQuotesSurvivesTraceRoundTrip) {
  // No base tables: the job fails in execution, after its job spans.
  storage::ThrottledDisk disk(FreshDir("tenant_escape"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  const std::string tenant = "acme\"prod\\eu";
  TraceRecorder recorder;
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.trace = &recorder;
    RefreshService service(&disk, options);
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = tenant;
    EXPECT_FALSE(service.Submit(spec).get().report.ok);
  }
  std::stringstream json;
  WriteChromeTrace(recorder, json);
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(LoadChromeTrace(json, &events, &error)) << error;
  const TraceAnalysis analysis = AnalyzeTrace(events);
  ASSERT_EQ(analysis.jobs.size(), 1u);
  EXPECT_EQ(analysis.jobs.begin()->second.tenant, tenant);
}

}  // namespace
}  // namespace sc::obs
