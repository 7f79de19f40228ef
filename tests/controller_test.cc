#include <gtest/gtest.h>

#include <filesystem>

#include "cost/cost_model.h"
#include "engine/executor.h"
#include "graph/topo.h"
#include "opt/optimizer.h"
#include "runtime/controller.h"
#include "storage/format.h"
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
  const std::string dir = testing::TempDir() + "/sc_ctrl_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

workload::MvWorkload TinyWorkload() {
  return workload::BuildIo1();
}

std::map<std::string, engine::TablePtr> TinyData() {
  workload::DataGenOptions options;
  options.scale = 0.03;
  return workload::GenerateTpcdsData(options);
}

TEST(MaterializerTest, WritesInBackground) {
  storage::ThrottledDisk disk(FreshDir("mat"), FastDisk());
  LanePool pool(1);
  Materializer materializer(&disk, pool);
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts({1, 2, 3}));
  auto table = std::make_shared<engine::Table>(engine::Table(
      engine::Schema({engine::Field{"x", engine::DataType::kInt64}}),
      std::move(cols)));
  auto f1 = materializer.Enqueue("t1", table);
  auto f2 = materializer.Enqueue("t2", table);
  f1.get();
  f2.get();
  EXPECT_TRUE(disk.Exists("t1"));
  EXPECT_TRUE(disk.Exists("t2"));
  materializer.Drain();
}

TEST(ControllerTest, UnoptimizedRunMaterializesAllMvs) {
  storage::ThrottledDisk disk(FreshDir("noopt"), FastDisk());
  ControllerOptions options;
  Controller controller(&disk, options);
  controller.LoadBaseTables(TinyData());
  const workload::MvWorkload wl = TinyWorkload();
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name))
        << wl.graph.node(v).name;
  }
  EXPECT_EQ(report.peak_memory, 0);
  EXPECT_EQ(report.nodes.size(),
            static_cast<std::size_t>(wl.graph.num_nodes()));
}

TEST(ControllerTest, OptimizedRunProducesIdenticalMvs) {
  // The headline correctness property: with S/C's plan the materialized
  // content of every MV is byte-identical to the unoptimized run.
  const auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();

  storage::ThrottledDisk disk_a(FreshDir("ident_a"), FastDisk());
  Controller controller_a(&disk_a, ControllerOptions{});
  controller_a.LoadBaseTables(data);
  ASSERT_TRUE(controller_a.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const opt::Optimizer optimizer;
  const auto result = optimizer.Optimize(wl.graph, budget);
  EXPECT_FALSE(opt::FlaggedNodes(result.plan.flags).empty());

  storage::ThrottledDisk disk_b(FreshDir("ident_b"), FastDisk());
  ControllerOptions options_b;
  options_b.budget = budget;
  Controller controller_b(&disk_b, options_b);
  controller_b.LoadBaseTables(data);
  const RunReport report = controller_b.Run(wl, result.plan);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_LE(report.peak_memory, budget);

  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    const engine::Table a = disk_a.ReadTable(name);
    const engine::Table b = disk_b.ReadTable(name);
    EXPECT_TRUE(a == b) << name;
  }
}

TEST(ControllerTest, FlaggedNodesServedFromMemory) {
  const auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("mem"), FastDisk());
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto result = opt::Optimizer{}.Optimize(wl.graph, budget);
  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  const RunReport report = controller.Run(wl, result.plan);
  ASSERT_TRUE(report.ok) << report.error;
  bool any_in_memory = false;
  for (const auto& node : report.nodes) {
    if (node.output_in_memory) any_in_memory = true;
  }
  EXPECT_TRUE(any_in_memory);
  EXPECT_GT(report.peak_memory, 0);
}

TEST(ControllerTest, RejectsInvalidPlan) {
  storage::ThrottledDisk disk(FreshDir("invalid"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  const workload::MvWorkload wl = TinyWorkload();
  opt::Plan bogus;
  bogus.order = graph::Order::FromSequence({0});  // wrong length
  bogus.flags = opt::EmptyFlags(wl.graph.num_nodes());
  const RunReport report = controller.Run(wl, bogus);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("invalid plan"), std::string::npos);
}

TEST(ControllerTest, RejectsPlanOverBudget) {
  storage::ThrottledDisk disk(FreshDir("overbudget"), FastDisk());
  workload::MvWorkload wl = TinyWorkload();
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    wl.graph.mutable_node(v).size_bytes = 100;
    wl.graph.mutable_node(v).speedup_score = 1.0;
  }
  ControllerOptions options;
  options.budget = 10;  // everything oversize
  Controller controller(&disk, options);
  opt::Plan plan;
  plan.order = graph::KahnTopologicalOrder(wl.graph);
  plan.flags = opt::MakeFlags(wl.graph.num_nodes(), {0});
  const RunReport report = controller.Run(wl, plan);
  EXPECT_FALSE(report.ok);
}

TEST(ControllerTest, MissingBaseTableFailsGracefully) {
  storage::ThrottledDisk disk(FreshDir("missing"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  // No LoadBaseTables: the first scan must fail and be reported.
  const RunReport report = controller.RunUnoptimized(TinyWorkload());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.error.empty());
}

TEST(ControllerTest, ProfileAnnotatesMetadata) {
  storage::ThrottledDisk disk(FreshDir("profile"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(TinyData());
  workload::MvWorkload wl = TinyWorkload();
  ASSERT_TRUE(controller.ProfileAndAnnotate(&wl).ok);
  bool any_score = false;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_GT(wl.graph.node(v).size_bytes, 0);
    if (wl.graph.node(v).speedup_score > 0) any_score = true;
  }
  EXPECT_TRUE(any_score);
}

// Speedup scores are in the run disk's units: per child read, one
// access latency plus the bytes at read bandwidth minus the memory read;
// plus the write term. No per-table open/commit overheads (seconds each
// on the paper testbed, which ThrottledDisk does not emulate).
TEST(ControllerTest, ProfileScoresUseTheThrottledDiskUnits) {
  storage::DiskProfile profile;
  profile.read_bw = 80e6;
  profile.write_bw = 50e6;
  profile.latency = 2e-3;
  storage::ThrottledDisk disk(FreshDir("score_units"), profile);
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(TinyData());
  workload::MvWorkload wl = TinyWorkload();
  ASSERT_TRUE(controller.ProfileAndAnnotate(&wl).ok);
  const cost::DeviceProfile memory;  // memory bandwidths are the defaults
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const graph::NodeInfo& node = wl.graph.node(v);
    const double bytes = static_cast<double>(node.size_bytes);
    const double children = static_cast<double>(wl.graph.children(v).size());
    const double read = profile.latency + bytes / profile.read_bw -
                        bytes / memory.mem_read_bw;
    const double write = profile.latency + bytes / profile.write_bw -
                         bytes / memory.mem_write_bw;
    EXPECT_NEAR(node.speedup_score, children * read + write,
                1e-9 * (children * read + write))
        << node.name;
  }
}

// With every SCC1 dictionary page interned, the string-heavy refresh
// (fact and dimension category columns written from one domain
// dictionary) never leaves the int32-code path, whether inputs come from
// disk or from the Memory Catalog. Outputs enter residency compressed:
// each string-heavy rollup's resident size is below that of its
// plain-string twin.
TEST(ControllerTest, StringHeavyRefreshHasNoCrossDictionaryFallbacks) {
  workload::StringHeavyOptions data_options;
  data_options.scale = 0.2;
  storage::ThrottledDisk disk(FreshDir("strheavy"), FastDisk());
  ControllerOptions options;
  options.budget = 16LL * 1024 * 1024;
  Controller controller(&disk, options);
  controller.LoadBaseTables(workload::GenerateStringHeavyData(data_options));
  workload::MvWorkload wl = workload::BuildStringHeavySynthetic(8);

  const std::int64_t before = engine::CrossDictionaryFallbacks();
  ASSERT_TRUE(controller.ProfileAndAnnotate(&wl).ok);
  const auto result = opt::Optimizer{}.Optimize(wl.graph, options.budget);
  EXPECT_FALSE(opt::FlaggedNodes(result.plan.flags).empty());
  const RunReport report = controller.Run(wl, result.plan);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(engine::CrossDictionaryFallbacks(), before);

  // Reference: the plans over plain-string twins of the base tables, in
  // memory and unpruned (the resolver returns whole tables), in node
  // order (the sink is the last node).
  data_options.dictionary_encode = false;
  std::map<std::string, engine::TablePtr> tables =
      workload::GenerateStringHeavyData(data_options);
  engine::FnResolver reference(
      [&](const std::string& name, const engine::ColumnSet*) {
        return tables.at(name);
      });
  std::map<std::string, std::int64_t> resident_bytes;
  for (const NodeRunStats& node : report.nodes) {
    resident_bytes[node.name] = node.output_bytes;
  }
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    engine::TablePtr expected = engine::ExecutePlan(*wl.plans[v], reference);
    EXPECT_TRUE(disk.ReadTable(name) == *expected) << name;
    // The plain-decoded twin of the output.
    engine::Table plain = *expected;
    for (std::size_t i = 0; i < plain.num_columns(); ++i) {
      engine::Column& col = plain.mutable_column(i);
      if (col.dictionary_encoded()) col = col.DecodeDictionary();
    }
    if (name.rfind("strheavy_mv_", 0) == 0) {
      EXPECT_LT(resident_bytes.at(name), plain.ByteSize()) << name;
    } else {
      // The sink keeps a few categories of the large shared dictionary:
      // residency must not charge for the whole dictionary.
      EXPECT_LE(resident_bytes.at(name), plain.ByteSize()) << name;
    }
    tables[name] = std::move(expected);
  }
}

// A UnionAll whose one input is resident in the Memory Catalog and whose
// other input is read from disk: the sink needs two columns, so the
// resident input is cut to them and the other is a projected read, and
// the union still sees one schema.
TEST(ControllerTest, UnionOfResidentAndDiskInputsMatchesReference) {
  using engine::Col;
  using engine::Lit;
  const auto data = TinyData();
  workload::MvWorkload wl;
  wl.name = "mixed_union";
  for (const std::int64_t lo : {0, 10}) {
    wl.graph.AddNode("slice_" + std::to_string(lo));
    wl.plans.push_back(engine::Filter(engine::Scan("store_sales"),
                                      engine::Gt(Col("ss_customer_sk"),
                                                 Lit(lo))));
    wl.scale.emplace_back();
  }
  const graph::NodeId sink = wl.graph.AddNode("slice_sink");
  wl.plans.push_back(engine::Aggregate(
      engine::UnionAll(engine::Scan("slice_0"), engine::Scan("slice_10")),
      {"ss_item_sk"}, {engine::SumOf(Col("ss_quantity"), "qty")}));
  wl.scale.emplace_back();
  wl.graph.AddEdge(0, sink);
  wl.graph.AddEdge(1, sink);

  storage::ThrottledDisk disk(FreshDir("mixed_union"), FastDisk());
  ControllerOptions options;
  options.budget = 64LL * 1024 * 1024;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  opt::Plan plan;
  plan.order = graph::KahnTopologicalOrder(wl.graph);
  plan.flags = opt::EmptyFlags(wl.graph.num_nodes());
  plan.flags[0] = true;  // slice_0 stays resident; slice_10 is on disk
  const std::int64_t read_before = disk.total_read_bytes();
  const RunReport report = controller.Run(wl, plan);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.catalog_hits, 1);
  // slice_10 was written whole and read back as two columns only.
  const std::int64_t read_bytes = disk.total_read_bytes() - read_before;
  EXPECT_GT(read_bytes, 0);
  EXPECT_LT(read_bytes, 2 * disk.FileSize("store_sales") +
                            disk.FileSize("slice_10"));

  std::map<std::string, engine::TablePtr> tables(data.begin(), data.end());
  engine::FnResolver reference(
      [&](const std::string& name, const engine::ColumnSet*) {
        return tables.at(name);
      });
  for (graph::NodeId v : plan.order.sequence) {
    tables[wl.graph.node(v).name] =
        engine::ExecutePlan(*wl.plans[v], reference);
  }
  EXPECT_TRUE(disk.ReadTable("slice_sink") == *tables.at("slice_sink"));
}

TEST(ControllerTest, SynchronousMaterializationModeWorks) {
  storage::ThrottledDisk disk(FreshDir("sync"), FastDisk());
  workload::MvWorkload wl = TinyWorkload();
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(TinyData());
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);
  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto result = opt::Optimizer{}.Optimize(wl.graph, budget);
  ControllerOptions options;
  options.budget = budget;
  options.background_materialize = false;
  Controller controller(&disk, options);
  const RunReport report = controller.Run(wl, result.plan);
  EXPECT_TRUE(report.ok) << report.error;
}


TEST(ControllerTest, BackgroundMaterializationFailureIsReported) {
  const auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("failbg"), FastDisk());
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);
  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto result = opt::Optimizer{}.Optimize(wl.graph, budget);
  const auto flagged = opt::FlaggedNodes(result.plan.flags);
  ASSERT_FALSE(flagged.empty());
  // Fail the background write of the first flagged MV.
  disk.InjectWriteFailure(wl.graph.node(flagged.front()).name);
  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  const RunReport report = controller.Run(wl, result.plan);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("injected write failure"),
            std::string::npos);
}

TEST(ControllerTest, ForegroundWriteFailureIsReported) {
  const auto data = TinyData();
  const workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("failfg"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(data);
  // Unoptimized run writes every MV synchronously; fail one mid-run.
  disk.InjectWriteFailure(wl.graph.node(5).name);
  const RunReport report = controller.RunUnoptimized(wl);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("injected write failure"),
            std::string::npos);
}

TEST(ControllerTest, RecoversOnRerunAfterFailure) {
  const auto data = TinyData();
  const workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("recover"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(data);
  disk.InjectWriteFailure(wl.graph.node(0).name);
  EXPECT_FALSE(controller.RunUnoptimized(wl).ok);
  // The injected failure is one-shot: a rerun succeeds and materializes
  // everything.
  const RunReport report = controller.RunUnoptimized(wl);
  EXPECT_TRUE(report.ok) << report.error;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name));
  }
}

}  // namespace
}  // namespace sc::runtime
