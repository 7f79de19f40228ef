// Self-tests of the benchmark: its correctness check catches a damaged
// MV, and the fig9_io exact-count record repeats for a fixed seed.
//
//   cmake --build .bench_build --target perfbench_test
//   (cd .bench_build && ./perfbench_test)
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

std::string WorkDir(const std::string& name) {
  return (std::filesystem::current_path() / "perfbench_test_work" / name)
      .string();
}

class RemoveWorkDir : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(WorkDir("")); }
};
const auto* const kRemoveWorkDir =
    ::testing::AddGlobalTestEnvironment(new RemoveWorkDir);

EngineConfig SmallConfig() {
  EngineConfig config = Fig9IoConfig();
  config.name = "small";
  config.tpcds_scale = 0.05;
  config.disk.throttle = false;
  return config;
}

TEST(CorrectnessCheck, CountsAnOverwrittenMv) {
  EngineBench bench(SmallConfig(), 3, WorkDir("overwrite"));
  ASSERT_FALSE(RefreshFailed(bench.Refresh(0)));
  ASSERT_TRUE(bench.MismatchedMvs(0).empty());

  // Overwrite one MV with another MV's contents, as a buggy refresh would.
  const sc::graph::Graph& g = bench.dags()[0].wl->graph;
  ASSERT_GE(g.num_nodes(), 2);
  const std::string victim = g.node(0).name;
  bench.disk().WriteTable(victim, bench.disk().ReadTable(g.node(1).name));

  const std::vector<std::string> bad = bench.MismatchedMvs(0);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], victim);

  // A missing file counts too.
  bench.disk().Remove(g.node(1).name);
  EXPECT_EQ(bench.MismatchedMvs(0).size(), 2u);

  // The next refresh rewrites both and the check is clean again.
  ASSERT_FALSE(RefreshFailed(bench.Refresh(0)));
  EXPECT_TRUE(bench.MismatchedMvs(0).empty());
}

TEST(CorrectnessCheck, BudgetOverrunFailsTheRefresh) {
  sc::runtime::RunReport report;
  report.ok = true;
  report.budget = 100;
  report.peak_memory = 100;
  EXPECT_FALSE(RefreshFailed(report));
  report.peak_memory = 101;
  EXPECT_TRUE(RefreshFailed(report));
  report.peak_memory = 0;
  report.ok = false;
  EXPECT_TRUE(RefreshFailed(report));
}

TEST(ExactCounts, Fig9IoCountsRepeatForTheSameSeed) {
  ExactCounts first;
  ExactCounts second;
  {
    EngineBench bench(Fig9IoConfig(), 11, WorkDir("counts"));
    first = CountRound(&bench);
  }
  {
    EngineBench bench(Fig9IoConfig(), 11, WorkDir("counts"));
    second = CountRound(&bench);
  }
  EXPECT_EQ(first, second);
  EXPECT_GT(first.flagged_nodes, 0);
  EXPECT_GT(first.catalog_hits, 0);
  EXPECT_GT(first.catalog_misses, 0);
  EXPECT_GT(first.peak_catalog_bytes, 0);
  EXPECT_GT(first.mv_bytes_written, 0);
}

}  // namespace
}  // namespace perfbench
