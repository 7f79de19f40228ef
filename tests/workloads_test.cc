#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "engine/executor.h"

#include "graph/topo.h"
#include "workload/datagen.h"
#include "workload/scale_model.h"
#include "workload/workloads.h"

namespace sc::workload {
namespace {

/// Executes every node of `wl` in dependency order twice: pruned,
/// through a MapResolver that hands each scan only the columns its plan
/// needs, and against an oracle resolver that ignores the column set
/// and always returns whole tables. Every output must equal the
/// oracle's, schema included. Returns the number of scans that pruned.
int ExpectPruningMatchesOracle(
    const MvWorkload& wl,
    const std::map<std::string, engine::TablePtr>& base) {
  std::unordered_map<std::string, engine::TablePtr> whole(base.begin(),
                                                          base.end());
  engine::FnResolver oracle(
      [&](const std::string& name, const engine::ColumnSet*) {
        return whole.at(name);
      });
  engine::MapResolver map;
  for (const auto& [name, table] : base) map.Put(name, table);
  int pruned_scans = 0;
  engine::FnResolver pruned(
      [&](const std::string& name, const engine::ColumnSet* columns) {
        engine::TablePtr table = map.Resolve(name, columns);
        if (table->num_columns() < whole.at(name)->num_columns()) {
          ++pruned_scans;
        }
        return table;
      });
  for (graph::NodeId v : graph::KahnTopologicalOrder(wl.graph).sequence) {
    const std::string& name = wl.graph.node(v).name;
    engine::TablePtr expected = engine::ExecutePlan(*wl.plans[v], oracle);
    engine::TablePtr actual = engine::ExecutePlan(*wl.plans[v], pruned);
    EXPECT_TRUE(actual->schema() == expected->schema()) << name;
    EXPECT_TRUE(*actual == *expected) << name;
    whole[name] = std::move(expected);
    map.Put(name, std::move(actual));
  }
  return pruned_scans;
}

class StandardWorkloadsTest : public testing::TestWithParam<int> {
 protected:
  MvWorkload Workload() const {
    return StandardWorkloads()[static_cast<std::size_t>(GetParam())];
  }
};

TEST(WorkloadsTest, TableIIINodeCounts) {
  const auto workloads = StandardWorkloads();
  ASSERT_EQ(workloads.size(), 5u);
  EXPECT_EQ(workloads[0].name, "io1");
  EXPECT_EQ(workloads[0].num_nodes(), 21);
  EXPECT_EQ(workloads[1].name, "io2");
  EXPECT_EQ(workloads[1].num_nodes(), 19);
  EXPECT_EQ(workloads[2].name, "io3");
  EXPECT_EQ(workloads[2].num_nodes(), 26);
  EXPECT_EQ(workloads[3].name, "compute1");
  EXPECT_EQ(workloads[3].num_nodes(), 21);
  EXPECT_EQ(workloads[4].name, "compute2");
  EXPECT_EQ(workloads[4].num_nodes(), 16);
}

TEST_P(StandardWorkloadsTest, PassesValidation) {
  const MvWorkload wl = Workload();
  std::string error;
  EXPECT_TRUE(ValidateWorkload(wl, &error)) << error;
}

TEST_P(StandardWorkloadsTest, GraphIsConnectedEnough) {
  const MvWorkload wl = Workload();
  // Every workload has at least one edge per non-root node.
  std::int32_t roots = 0;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    if (wl.graph.parents(v).empty()) ++roots;
  }
  EXPECT_GT(roots, 0);
  EXPECT_LT(roots, wl.graph.num_nodes());
  EXPECT_GE(wl.graph.num_edges(), wl.graph.num_nodes() - roots);
}

TEST_P(StandardWorkloadsTest, ExecutesOnTinyDataset) {
  // Every node's plan must execute successfully against generated data in
  // dependency order, with non-degenerate outputs somewhere.
  const MvWorkload wl = Workload();
  DataGenOptions options;
  options.scale = 0.05;
  const auto base = GenerateTpcdsData(options);
  engine::MapResolver resolver;
  resolver.Reserve(base.size() +
                   static_cast<std::size_t>(wl.graph.num_nodes()));
  for (const auto& [name, table] : base) resolver.Put(name, table);

  const graph::Order order = graph::KahnTopologicalOrder(wl.graph);
  std::uint64_t total_rows = 0;
  for (graph::NodeId v : order.sequence) {
    engine::TablePtr out = engine::ExecutePlan(*wl.plans[v], resolver);
    total_rows += out->num_rows();
    resolver.Put(wl.graph.node(v).name, std::move(out));
  }
  EXPECT_GT(total_rows, 0u);
}

TEST_P(StandardWorkloadsTest, PrunedExecutionMatchesWholeTableOracle) {
  DataGenOptions options;
  options.scale = 0.05;
  EXPECT_GT(ExpectPruningMatchesOracle(Workload(), GenerateTpcdsData(options)),
            0);
}

INSTANTIATE_TEST_SUITE_P(AllFive, StandardWorkloadsTest,
                         testing::Range(0, 5),
                         [](const testing::TestParamInfo<int>& info) {
                           return StandardWorkloads()
                               [static_cast<std::size_t>(info.param)]
                                   .name;
                         });

TEST(WorkloadsTest, PrunedStringHeavyExecutionMatchesWholeTableOracle) {
  StringHeavyOptions options;
  options.scale = 0.1;
  EXPECT_GT(ExpectPruningMatchesOracle(BuildStringHeavySynthetic(8),
                                       GenerateStringHeavyData(options)),
            0);
}

TEST(WorkloadsTest, ValidateCatchesNonParentScan) {
  MvWorkload wl = BuildIo1();
  // Tamper: make one node's plan reference an MV that is not its parent.
  wl.plans[5] = engine::Scan("io1_q5_report");
  std::string error;
  EXPECT_FALSE(ValidateWorkload(wl, &error));
}

TEST(WorkloadsTest, ValidateCatchesCountMismatch) {
  MvWorkload wl = BuildIo2();
  wl.plans.pop_back();
  std::string error;
  EXPECT_FALSE(ValidateWorkload(wl, &error));
  EXPECT_NE(error.find("plan count"), std::string::npos);
}

TEST(WorkloadsTest, QueriesRecorded) {
  EXPECT_EQ(BuildIo1().tpcds_queries, (std::vector<int>{5, 77, 80}));
  EXPECT_EQ(BuildCompute2().tpcds_queries, (std::vector<int>{14, 23}));
}

}  // namespace
}  // namespace sc::workload
