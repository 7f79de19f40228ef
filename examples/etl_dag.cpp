// Generic DAG-job scheduling (the paper's §VIII future-work direction):
// S/C's optimizer is oblivious to what each node computes, so it applies
// to any recurring workload of jobs with acyclic dependencies — here an
// Airflow-style ETL pipeline.
//
//   $ ./examples/etl_dag
#include <iostream>

#include "api/sc.h"

int main() {
  using namespace sc;

  // A nightly clickstream ETL pipeline. Sizes are the expected output
  // sizes; compute times and base-table input volumes come from past runs.
  // Speedup scores are left at 0 here; they are derived from the device
  // model below.
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
  const auto raw_events = add("raw_events", 6000, 30.0, 9000);
  const auto sessionized = add("sessionized", 2500, 22.0, 0);
  const auto enriched = add("enriched", 2800, 15.0, 500);
  const auto user_profiles = add("user_profiles", 400, 12.0, 0);
  const auto funnel_daily = add("funnel_daily", 80, 6.0, 0);
  const auto retention_7d = add("retention_7d", 60, 8.0, 0);
  const auto ads_attribution = add("ads_attribution", 900, 10.0, 200);
  const auto revenue_report = add("revenue_report", 5, 2.0, 0);
  g.AddEdge(raw_events, sessionized);
  g.AddEdge(sessionized, enriched);
  g.AddEdge(enriched, user_profiles);
  g.AddEdge(enriched, funnel_daily);
  g.AddEdge(user_profiles, retention_7d);
  g.AddEdge(sessionized, ads_attribution);
  g.AddEdge(ads_attribution, revenue_report);
  g.AddEdge(funnel_daily, revenue_report);

  std::cout << "loaded ETL DAG: " << g.num_nodes() << " jobs, "
            << g.num_edges() << " dependencies, total intermediate data "
            << FormatBytes(g.TotalSize()) << "\n";

  // Derive speedup scores for a slower, NFS-like storage tier.
  const cost::CostModel model{cost::DeviceProfile::SlowNfs()};
  cost::SpeedupEstimator{model}.AnnotateGraph(&g);

  for (const std::int64_t budget : {1 * kGB, 4 * kGB, 8 * kGB}) {
    const opt::AlternatingResult result =
        opt::Optimizer{}.Optimize(g, budget);
    sim::SimOptions sim_options;
    sim_options.budget = budget;
    sim_options.device = cost::DeviceProfile::SlowNfs();
    const double noopt = sim::SimulateNoOpt(g, sim_options).makespan;
    const double sc =
        sim::SimulateRun(g, result.plan, sim_options).makespan;
    std::cout << "\nwith " << FormatBytes(budget) << " of memory: "
              << StrFormat("%.0fs -> %.0fs (%.2fx)", noopt, sc, noopt / sc)
              << "\n  kept in memory:";
    for (graph::NodeId v : opt::FlaggedNodes(result.plan.flags)) {
      std::cout << " " << g.node(v).name;
    }
    std::cout << "\n  order:";
    for (graph::NodeId v : result.plan.order.sequence) {
      std::cout << " " << g.node(v).name;
    }
    std::cout << "\n";
  }
  return 0;
}
