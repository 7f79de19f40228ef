#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "opt/optimizer.h"
#include "opt/stages.h"
#include "runtime/controller.h"
#include "runtime/lane_pool.h"
#include "runtime/stage_scheduler.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::runtime {
namespace {

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_stage_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::map<std::string, engine::TablePtr> TinyData() {
  workload::DataGenOptions options;
  options.scale = 0.03;
  return workload::GenerateTpcdsData(options);
}

workload::MvWorkload WideWorkload(int width) {
  return workload::BuildWideSynthetic(width);
}

// ---------------------------------------------------------------------------
// Stage decomposition
// ---------------------------------------------------------------------------

TEST(StageDecompositionTest, ChainYieldsOneNodePerStage) {
  graph::Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  const auto c = g.AddNode("c");
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  const auto stages =
      opt::DecomposeStages(g, graph::KahnTopologicalOrder(g));
  ASSERT_EQ(stages.num_stages(), 3);
  EXPECT_EQ(stages.width(), 1u);
  EXPECT_EQ(stages.stage_of[a], 0);
  EXPECT_EQ(stages.stage_of[b], 1);
  EXPECT_EQ(stages.stage_of[c], 2);
}

TEST(StageDecompositionTest, DiamondYieldsAntichains) {
  graph::Graph g;
  const auto root = g.AddNode("root");
  const auto left = g.AddNode("left");
  const auto right = g.AddNode("right");
  const auto sink = g.AddNode("sink");
  g.AddEdge(root, left);
  g.AddEdge(root, right);
  g.AddEdge(left, sink);
  g.AddEdge(right, sink);
  const auto order = graph::KahnTopologicalOrder(g);
  const auto stages = opt::DecomposeStages(g, order);
  ASSERT_EQ(stages.num_stages(), 3);
  EXPECT_EQ(stages.width(), 2u);
  EXPECT_EQ(stages.stages[1].size(), 2u);
  // Every parent sits in a strictly earlier stage (antichain property).
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId p : g.parents(v)) {
      EXPECT_LT(stages.stage_of[p], stages.stage_of[v]);
    }
  }
  // Intra-stage listing follows order position.
  EXPECT_LT(order.position[stages.stages[1][0]],
            order.position[stages.stages[1][1]]);
}

TEST(StageDecompositionTest, RejectsNonTopologicalOrder) {
  graph::Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  g.AddEdge(a, b);
  const auto order = graph::Order::FromSequence({b, a});
  EXPECT_THROW(opt::DecomposeStages(g, order), std::invalid_argument);
  EXPECT_THROW(
      opt::DecomposeStages(g, graph::Order::FromSequence({a})),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LanePool / StageScheduler
// ---------------------------------------------------------------------------

TEST(LanePoolRuntimeTest, RunsEveryTaskAcrossLanes) {
  LanePool pool(4);
  EXPECT_EQ(pool.capacity(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 100);
  EXPECT_LE(pool.threads_started(), 4);
}

TEST(StageSchedulerTest, SingleLaneDispatchFollowsPlanOrder) {
  graph::Graph g;
  const auto root = g.AddNode("root");
  const auto left = g.AddNode("left");
  const auto right = g.AddNode("right");
  const auto sink = g.AddNode("sink");
  g.AddEdge(root, left);
  g.AddEdge(root, right);
  g.AddEdge(left, sink);
  g.AddEdge(right, sink);
  const auto order = graph::KahnTopologicalOrder(g);
  const auto stages = opt::DecomposeStages(g, order);
  StageScheduler scheduler(g, order, stages);
  std::vector<graph::NodeId> dispatched;
  while (scheduler.HasReady()) {
    const graph::NodeId v = scheduler.PopReady();
    dispatched.push_back(v);
    scheduler.MarkAvailable(v);  // 1-lane: done before the next dispatch
  }
  EXPECT_EQ(dispatched, order.sequence);
  EXPECT_TRUE(scheduler.AllDispatched());
}

TEST(StageSchedulerTest, ReadyRequiresEveryParentAvailable) {
  graph::Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  const auto c = g.AddNode("c");
  g.AddEdge(a, c);
  g.AddEdge(b, c);
  const auto order = graph::KahnTopologicalOrder(g);
  const auto stages = opt::DecomposeStages(g, order);
  StageScheduler scheduler(g, order, stages);
  EXPECT_EQ(scheduler.PopReady(), a);
  EXPECT_EQ(scheduler.PopReady(), b);
  EXPECT_FALSE(scheduler.HasReady());  // c waits for both parents
  scheduler.MarkAvailable(a);
  EXPECT_FALSE(scheduler.HasReady());
  scheduler.MarkAvailable(b);
  EXPECT_EQ(scheduler.PopReady(), c);
}

// ---------------------------------------------------------------------------
// One-lane guarantee (acceptance regression test)
// ---------------------------------------------------------------------------

/// Writes No-opt's MVs (topological order, nothing flagged, one lane) to
/// a fresh disk: the byte-level oracle for every optimized run.
void RunNoOptReference(storage::ThrottledDisk* disk,
                       const std::map<std::string, engine::TablePtr>& data,
                       const workload::MvWorkload& wl) {
  Controller reference(disk, ControllerOptions{});
  reference.LoadBaseTables(data);
  const RunReport report = reference.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
}

void ExpectMvsMatch(const workload::MvWorkload& wl,
                    storage::ThrottledDisk& expected,
                    storage::ThrottledDisk& actual) {
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    EXPECT_TRUE(expected.ReadTable(name) == actual.ReadTable(name)) << name;
  }
}

std::vector<std::string> PublishOrder(const RunReport& report) {
  std::vector<std::string> names;
  for (const NodeRunStats& node : report.nodes) names.push_back(node.name);
  return names;
}

std::vector<std::string> PlanOrder(const workload::MvWorkload& wl,
                                   const opt::Plan& plan) {
  std::vector<std::string> names;
  for (const graph::NodeId v : plan.order.sequence) {
    names.push_back(wl.graph.node(v).name);
  }
  return names;
}

/// The deterministic fields of a run, 1-lane report as the reference:
/// node stats (in publish order), catalog hit/miss counts, peak memory.
void ExpectSameResidency(const RunReport& one, const RunReport& many,
                         int lanes) {
  EXPECT_EQ(one.peak_memory, many.peak_memory) << lanes;
  EXPECT_EQ(one.catalog_hits, many.catalog_hits) << lanes;
  EXPECT_EQ(one.catalog_misses, many.catalog_misses) << lanes;
  ASSERT_EQ(one.nodes.size(), many.nodes.size()) << lanes;
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    EXPECT_EQ(one.nodes[i].name, many.nodes[i].name) << lanes;
    EXPECT_EQ(one.nodes[i].output_bytes, many.nodes[i].output_bytes)
        << lanes;
    EXPECT_EQ(one.nodes[i].output_rows, many.nodes[i].output_rows) << lanes;
    EXPECT_EQ(one.nodes[i].output_in_memory,
              many.nodes[i].output_in_memory)
        << lanes;
    EXPECT_EQ(one.nodes[i].stage, many.nodes[i].stage) << lanes;
  }
}

TEST(StageRuntimeTest, OneLaneRunMatchesNoOptInPlanOrder) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("eq_profile"), FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ASSERT_FALSE(opt::FlaggedNodes(plan.flags).empty());

  storage::ThrottledDisk disk_ref(FreshDir("eq_noopt"), FastDisk());
  RunNoOptReference(&disk_ref, data, wl);

  storage::ThrottledDisk disk(FreshDir("eq_one"), FastDisk());
  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.Run(wl, plan);
  ASSERT_TRUE(report.ok) << report.error;

  // The paper's sequential Controller: every node runs on the
  // coordinator and publishes at its plan-order slot, within budget,
  // with no reservation backpressure to apply.
  EXPECT_EQ(report.parallel_lanes, 1);
  EXPECT_EQ(report.inlined_nodes,
            static_cast<std::int64_t>(wl.graph.num_nodes()));
  EXPECT_EQ(report.reserve_denials, 0);
  EXPECT_GT(report.peak_memory, 0);
  EXPECT_LE(report.peak_memory, budget);
  EXPECT_EQ(PublishOrder(report), PlanOrder(wl, plan));
  ExpectMvsMatch(wl, disk_ref, disk);
}

// A standalone 1-lane Controller hands no node to a lane, even on a
// throttled disk where every node is estimated above the inline
// threshold (the 2-lane control run inlines none of them). Its owned
// pool carries only the Materializer drain: repeated runs start one
// lane in total.
TEST(StageRuntimeTest, OneLaneControllerRunsEveryNodeInlineOnOwnedPool) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();
  storage::DiskProfile throttled;
  throttled.read_bw = 200e6;
  throttled.write_bw = 200e6;
  throttled.latency = 2e-3;

  storage::ThrottledDisk disk_ref(FreshDir("own_noopt"), FastDisk());
  RunNoOptReference(&disk_ref, data, wl);

  storage::ThrottledDisk disk(FreshDir("own_one"), throttled);
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);
  const std::int64_t budget = 8LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ASSERT_FALSE(opt::FlaggedNodes(plan.flags).empty());
  const auto num_nodes = static_cast<std::int64_t>(wl.graph.num_nodes());

  ControllerOptions two_options;
  two_options.budget = budget;
  two_options.max_parallel_nodes = 2;
  Controller two_lanes(&disk, two_options);
  const RunReport control = two_lanes.Run(wl, plan);
  ASSERT_TRUE(control.ok) << control.error;
  ASSERT_EQ(control.parallel_lanes, 2);
  ASSERT_EQ(control.inlined_nodes, 0);

  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  ASSERT_EQ(controller.lane_pool().capacity(), 1);
  for (int run = 0; run < 3; ++run) {
    const RunReport report = controller.Run(wl, plan);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.inlined_nodes, num_nodes) << run;
    EXPECT_EQ(report.morsel_tasks, 0) << run;
    EXPECT_EQ(PublishOrder(report), PlanOrder(wl, plan)) << run;
    ExpectMvsMatch(wl, disk_ref, disk);
  }
  EXPECT_GE(controller.lane_pool().threads_started(), 1);
  EXPECT_LE(controller.lane_pool().threads_started(), 1);
}

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

TEST(StageRuntimeTest, FourLanesProduceIdenticalMvsWithinBudget) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("par_profile"), FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;

  storage::ThrottledDisk disk_ref(FreshDir("par_noopt"), FastDisk());
  RunNoOptReference(&disk_ref, data, wl);

  storage::ThrottledDisk disk_par(FreshDir("par_par"), FastDisk());
  ControllerOptions par_options;
  par_options.budget = budget;
  par_options.max_parallel_nodes = 4;
  Controller parallel(&disk_par, par_options);
  parallel.LoadBaseTables(data);
  const RunReport par = parallel.Run(wl, plan);
  ASSERT_TRUE(par.ok) << par.error;

  EXPECT_GT(par.parallel_lanes, 1);
  EXPECT_GT(par.num_stages, 0);
  EXPECT_LE(par.peak_memory, budget);
  ASSERT_EQ(par.nodes.size(),
            static_cast<std::size_t>(wl.graph.num_nodes()));
  EXPECT_EQ(PublishOrder(par), PlanOrder(wl, plan));
  ExpectMvsMatch(wl, disk_ref, disk_par);
}

TEST(StageRuntimeTest, WideDagExecutesOnAllLanes) {
  const auto data = TinyData();
  workload::MvWorkload wl = WideWorkload(8);
  std::string error;
  ASSERT_TRUE(wl.graph.Validate(&error)) << error;

  storage::ThrottledDisk disk(FreshDir("wide"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.parallel_lanes, 4);
  EXPECT_EQ(report.num_stages, 2);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name));
  }

  // The same run with one lane yields byte-identical MV contents.
  storage::ThrottledDisk disk_one(FreshDir("wide_one"), FastDisk());
  RunNoOptReference(&disk_one, data, wl);
  ExpectMvsMatch(wl, disk_one, disk);
}

// The relaxed publish protocol decouples dispatch from the in-order
// residency replay; this asserts the replay is still exactly the 1-lane
// Put / lazy-release sequence: node stats (deterministic fields), catalog
// hit/miss counts, and peak memory are identical to the 1-lane run at 2
// and 4 lanes.
TEST(StageRuntimeTest, RelaxedPublishMatchesOneLaneStats) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("relax_profile"),
                                      FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ASSERT_FALSE(opt::FlaggedNodes(plan.flags).empty());

  storage::ThrottledDisk disk_one(FreshDir("relax_one"), FastDisk());
  ControllerOptions one_options;
  one_options.budget = budget;
  Controller one_lane(&disk_one, one_options);
  one_lane.LoadBaseTables(data);
  const RunReport one = one_lane.Run(wl, plan);
  ASSERT_TRUE(one.ok) << one.error;

  for (const int lanes : {2, 4}) {
    storage::ThrottledDisk disk_par(
        FreshDir("relax_par" + std::to_string(lanes)), FastDisk());
    ControllerOptions par_options;
    par_options.budget = budget;
    par_options.max_parallel_nodes = lanes;
    Controller parallel(&disk_par, par_options);
    parallel.LoadBaseTables(data);
    const RunReport par = parallel.Run(wl, plan);
    ASSERT_TRUE(par.ok) << par.error;

    EXPECT_GT(par.parallel_lanes, 1);
    ExpectSameResidency(one, par, lanes);
    ExpectMvsMatch(wl, disk_one, disk_par);
  }
}

// Inline small-node dispatch: nodes estimated at no more than the
// inline threshold (1 ms) execute on the coordinator thread instead of a
// LanePool lane. Equivalence with the 1-lane run must hold when every
// node inlines — identical node stats, catalog hit/miss counts, peak
// memory, and MV bytes at 2 and 4 lanes — and RunReport must expose how
// many nodes were inlined.
TEST(StageRuntimeTest, InlineDispatchKeepsOneLaneEquivalence) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("inline_profile"),
                                      FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ASSERT_FALSE(opt::FlaggedNodes(plan.flags).empty());
  // Profile every node far below the threshold. On an unthrottled disk
  // the estimate is the profiled compute alone, so every node inlines at
  // any lane count however fast the host runs.
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    wl.graph.mutable_node(v).compute_seconds = 1e-6;
  }

  // Reference: one lane — the coordinator runs every node, since it is
  // the run's only lane.
  storage::ThrottledDisk disk_one(FreshDir("inline_one"), FastDisk());
  ControllerOptions one_options;
  one_options.budget = budget;
  Controller one_lane(&disk_one, one_options);
  one_lane.LoadBaseTables(data);
  const RunReport one = one_lane.Run(wl, plan);
  ASSERT_TRUE(one.ok) << one.error;
  EXPECT_EQ(one.inlined_nodes,
            static_cast<std::int64_t>(wl.graph.num_nodes()));

  for (const int lanes : {2, 4}) {
    storage::ThrottledDisk disk_par(
        FreshDir("inline_par" + std::to_string(lanes)), FastDisk());
    ControllerOptions par_options;
    par_options.budget = budget;
    par_options.max_parallel_nodes = lanes;
    Controller parallel(&disk_par, par_options);
    parallel.LoadBaseTables(data);
    const RunReport par = parallel.Run(wl, plan);
    ASSERT_TRUE(par.ok) << par.error;

    EXPECT_EQ(par.inlined_nodes,
              static_cast<std::int64_t>(wl.graph.num_nodes()))
        << lanes;
    ExpectSameResidency(one, par, lanes);
    ExpectMvsMatch(wl, disk_one, disk_par);
  }
}

// Morsel-driven intra-operator parallelism must be invisible in every
// observable output: a 4-lane run whose joins and aggregates split into
// morsels publishes in the same order, with the same per-node stats and
// MV bytes, as the 1-lane run (whose 1-lane pool caps every morsel
// budget at one). The workload is unprofiled, so every node gets the
// full morsel budget and the 8192-row floor decides the split: at scale
// 0.85 each channel's fact input has 17,000 rows, enough for two
// morsels. RunReport::morsel_tasks must expose the fan-out wherever the
// host has the cores to fan out onto.
TEST(StageRuntimeTest, MorselExecutionKeepsPublishOrderAndMvBytes) {
  workload::DataGenOptions data_options;
  data_options.scale = 0.85;
  const auto data = workload::GenerateTpcdsData(data_options);
  ASSERT_GT(workload::RowCountsFor(data_options).sales_per_channel,
            2 * 8192);
  const workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk disk_one(FreshDir("morsel_one"), FastDisk());
  Controller one_lane(&disk_one, ControllerOptions{});
  one_lane.LoadBaseTables(data);
  const RunReport one = one_lane.RunUnoptimized(wl);
  ASSERT_TRUE(one.ok) << one.error;
  EXPECT_EQ(one.morsel_tasks, 0);

  storage::ThrottledDisk disk_par(FreshDir("morsel_par4"), FastDisk());
  ControllerOptions par_options;
  par_options.max_parallel_nodes = 4;
  Controller parallel(&disk_par, par_options);
  parallel.LoadBaseTables(data);
  const RunReport par = parallel.RunUnoptimized(wl);
  ASSERT_TRUE(par.ok) << par.error;

  ASSERT_EQ(one.nodes.size(), par.nodes.size());
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    EXPECT_EQ(one.nodes[i].name, par.nodes[i].name);  // publish order
    EXPECT_EQ(one.nodes[i].output_bytes, par.nodes[i].output_bytes);
    EXPECT_EQ(one.nodes[i].output_rows, par.nodes[i].output_rows);
  }
  EXPECT_EQ(one.peak_memory, par.peak_memory);
  ExpectMvsMatch(wl, disk_one, disk_par);
  // Fan-out is capped at hardware concurrency: a 1-core host never
  // splits.
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GT(par.morsel_tasks, 0);
  }
}

// Unprofiled nodes have unknown cost and must never be inlined — the
// wide synthetic DAG carries no execution metadata, so its parallel
// speedup path (lanes) stays intact.
TEST(StageRuntimeTest, UnknownCostNodesAreNeverInlined) {
  const auto data = TinyData();
  const workload::MvWorkload wl = WideWorkload(6);
  storage::ThrottledDisk disk(FreshDir("inline_unknown"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.inlined_nodes, 0);
  EXPECT_EQ(report.parallel_lanes, 4);
}

// Borrowed-pool mode: back-to-back parallel runs on one shared LanePool
// reuse its lane threads instead of constructing a pool per run.
TEST(StageRuntimeTest, SharedLanePoolReusedAcrossRuns) {
  const auto data = TinyData();
  const workload::MvWorkload wl = WideWorkload(8);

  LanePool pool(4);
  storage::ThrottledDisk disk(FreshDir("shared_pool"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  options.lane_pool = &pool;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);

  ASSERT_TRUE(controller.RunUnoptimized(wl).ok);
  const std::int64_t started_after_first = pool.threads_started();
  EXPECT_GE(started_after_first, 1);
  EXPECT_LE(started_after_first, 4);
  for (int i = 0; i < 3; ++i) {
    const RunReport report = controller.RunUnoptimized(wl);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.parallel_lanes, 4);
  }
  // Zero thread construction per job in steady state.
  EXPECT_EQ(pool.threads_started(), started_after_first);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name));
  }
}

TEST(StageRuntimeTest, ParallelExecutionFailureIsReported) {
  const auto data = TinyData();
  const workload::MvWorkload wl = WideWorkload(6);
  storage::ThrottledDisk disk(FreshDir("wide_fail"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  disk.InjectWriteFailure("wide_mv_3");
  const RunReport report = controller.RunUnoptimized(wl);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("injected write failure"),
            std::string::npos);
  // The failure is one-shot; a rerun completes.
  EXPECT_TRUE(controller.RunUnoptimized(wl).ok);
}

TEST(StageRuntimeTest, ParallelFlaggedRunStaysWithinTightBudget) {
  const auto data = TinyData();
  workload::MvWorkload wl = WideWorkload(8);
  storage::ThrottledDisk profile_disk(FreshDir("tight_profile"),
                                      FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  // Budget only big enough for a few rollups at a time: concurrent
  // lanes must not jointly overshoot it.
  std::int64_t three_largest = 0;
  std::vector<std::int64_t> sizes;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    sizes.push_back(wl.graph.node(v).size_bytes);
  }
  std::sort(sizes.rbegin(), sizes.rend());
  for (int i = 0; i < 3 && i < static_cast<int>(sizes.size()); ++i) {
    three_largest += sizes[static_cast<std::size_t>(i)];
  }
  const std::int64_t budget = three_largest;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;

  storage::ThrottledDisk disk(FreshDir("tight"), FastDisk());
  ControllerOptions options;
  options.budget = budget;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.Run(wl, plan);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_LE(report.peak_memory, budget);
}

// ---------------------------------------------------------------------------
// Materializer under concurrent Enqueue (single-writer FIFO channel)
// ---------------------------------------------------------------------------

TEST(MaterializerTest, ConcurrentEnqueueKeepsFifoAndDrainRacesClean) {
  storage::ThrottledDisk disk(FreshDir("mat_conc"), FastDisk());
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts({1, 2, 3}));
  auto table = std::make_shared<engine::Table>(engine::Table(
      engine::Schema({engine::Field{"x", engine::DataType::kInt64}}),
      std::move(cols)));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::shared_future<void>> futures;  // global enqueue order
  std::mutex order_mutex;
  LanePool pool(2);
  {
    Materializer materializer(&disk, pool);
    std::atomic<bool> stop{false};
    // A drainer racing the producers: Drain must never crash or wedge.
    std::thread drainer([&] {
      while (!stop.load()) materializer.Drain();
    });
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string name =
              "mat_" + std::to_string(t) + "_" + std::to_string(i);
          // Enqueue under the recording mutex so the recorded order is
          // the queue order.
          std::lock_guard<std::mutex> lock(order_mutex);
          futures.push_back(materializer.Enqueue(name, table));
        }
      });
    }
    for (auto& p : producers) p.join();
    futures.back().get();
    // Single-writer FIFO: once the last-enqueued write finished, every
    // earlier write has finished too.
    for (const auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    }
    materializer.Drain();
    stop.store(true);
    drainer.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(disk.Exists("mat_" + std::to_string(t) + "_" +
                              std::to_string(i)));
    }
  }
}

}  // namespace
}  // namespace sc::runtime
