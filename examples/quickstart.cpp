// Quickstart: define a small MV dependency graph, estimate speedup scores
// from a device model, run S/C Opt, and simulate the refresh run.
//
//   $ ./examples/quickstart
#include <iostream>

#include "api/sc.h"

int main() {
  using namespace sc;

  // 1. Describe the MV refresh run as a dependency graph. Each node is
  //    one MV update; sizes are the expected output sizes; compute times
  //    and base-table input volumes come from past runs (§III-A).
  graph::Graph g;
  auto add = [&](const char* name, std::int64_t size_mb, double compute_s,
                 std::int64_t base_in_mb) {
    graph::NodeInfo info;
    info.name = name;
    info.size_bytes = size_mb * kMB;
    info.compute_seconds = compute_s;
    info.base_input_bytes = base_in_mb * kMB;
    return g.AddNode(std::move(info));
  };
  const auto daily_sales = add("daily_sales", 800, 4.0, 2000);
  const auto sales_by_store = add("sales_by_store", 120, 2.0, 0);
  const auto sales_by_item = add("sales_by_item", 300, 2.5, 0);
  const auto top_stores = add("top_stores", 4, 0.5, 0);
  const auto top_items = add("top_items", 6, 0.5, 0);
  const auto exec_dashboard = add("exec_dashboard", 2, 0.3, 0);
  g.AddEdge(daily_sales, sales_by_store);
  g.AddEdge(daily_sales, sales_by_item);
  g.AddEdge(sales_by_store, top_stores);
  g.AddEdge(sales_by_item, top_items);
  g.AddEdge(top_stores, exec_dashboard);
  g.AddEdge(top_items, exec_dashboard);

  // 2. Estimate speedup scores T from the storage device profile.
  const cost::CostModel model{cost::DeviceProfile::PaperTestbed()};
  cost::SpeedupEstimator{model}.AnnotateGraph(&g);
  std::cout << "speedup scores (seconds saved by keeping each MV in "
               "memory):\n";
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::cout << "  " << g.node(v).name << ": "
              << StrFormat("%.2f s", g.node(v).speedup_score) << "\n";
  }

  // 3. Solve S/C Opt with a 1GB Memory Catalog.
  const std::int64_t budget = 1 * kGB;
  const opt::Optimizer optimizer;
  const opt::AlternatingResult result = optimizer.Optimize(g, budget);
  std::cout << "\nS/C plan (Memory Catalog " << FormatBytes(budget)
            << ", converged in " << result.iterations << " iterations):\n"
            << opt::DescribePlan(g, result.plan);

  // 4. Simulate the run against the device model and compare to the
  //    unoptimized baseline.
  sim::SimOptions sim_options;
  sim_options.budget = budget;
  const double noopt = sim::SimulateNoOpt(g, sim_options).makespan;
  const double sc = sim::SimulateRun(g, result.plan, sim_options).makespan;
  std::cout << "\nsimulated refresh time: " << StrFormat("%.2f", noopt)
            << "s unoptimized -> " << StrFormat("%.2f", sc)
            << "s with S/C (" << StrFormat("%.2fx", noopt / sc)
            << " speedup)\n";
  return 0;
}
