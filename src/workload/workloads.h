#ifndef SC_WORKLOAD_WORKLOADS_H_
#define SC_WORKLOAD_WORKLOADS_H_

#include <string>
#include <vector>

#include "engine/plan.h"
#include "graph/graph.h"

namespace sc::workload {

/// Analytic scaling coefficients for one MV node: how its output size,
/// compute time, and base-table input volume grow with the dataset size.
/// The `part_*` multipliers apply for the date-partitioned dataset variant
/// (TPC-DSp), whose pruned scans yield smaller intermediates (paper §VI-A).
struct NodeScale {
  double out_mb_per_gb = 1.0;       // intermediate size, MB per dataset GB
  double compute_sec_per_gb = 0.1;  // compute seconds per dataset GB
  double base_in_mb_per_gb = 0.0;   // base-table bytes read, MB per GB
  double part_out = 1.0;
  double part_compute = 1.0;
  double part_in = 1.0;
};

/// One MV refresh workload: a dependency graph, one executable logical
/// plan per node (for the real engine), and one NodeScale per node (for
/// the analytic model / simulator). Node names double as MV table names;
/// plan scan leaves reference either base tables or parent MV names.
struct MvWorkload {
  std::string name;
  std::string description;
  std::vector<int> tpcds_queries;
  graph::Graph graph;
  std::vector<engine::PlanPtr> plans;
  std::vector<NodeScale> scale;

  std::int32_t num_nodes() const { return graph.num_nodes(); }
};

/// The five workloads of Table III. Node counts match the paper:
/// I/O 1 (q5,77,80): 21, I/O 2 (q2,59,74,75): 19, I/O 3 (q44,49): 26,
/// Compute 1 (q33,56,60,61): 21, Compute 2 (q14,23): 16.
MvWorkload BuildIo1();
MvWorkload BuildIo2();
MvWorkload BuildIo3();
MvWorkload BuildCompute1();
MvWorkload BuildCompute2();

/// All five, in Table III order.
std::vector<MvWorkload> StandardWorkloads();

/// A synthetic wide workload exercising the intra-job parallel runtime:
/// `width` independent channel-fact-table rollups ("wide_mv_<i>")
/// feeding one union-aggregate sink ("wide_sink"), i.e. two antichain
/// stages of width `width` and 1. With `heavy`, each rollup also sorts
/// and aggregates net profit (the benchmark shape — more compute per
/// node); tests use the light shape.
MvWorkload BuildWideSynthetic(int width, bool heavy = false);

/// A synthetic string-heavy workload over the GenerateStringHeavyData
/// base tables: `width` independent category rollups
/// ("strheavy_mv_<i>"), each a fact-dimension hash join on the string
/// `category` key aggregated by (category, bucket) — so every MV output
/// repeats each category string ~32x and dictionary encoding compresses
/// it hard — feeding one union-aggregate sink ("strheavy_sink"). The
/// shape where compressed residency packs visibly more MVs per byte of
/// Memory-Catalog budget.
MvWorkload BuildStringHeavySynthetic(int width);

/// Consistency check used by tests: every plan's scan leaves are either
/// base tables or names of graph parents, and edges match plan references.
bool ValidateWorkload(const MvWorkload& wl, std::string* error);

}  // namespace sc::workload

#endif  // SC_WORKLOAD_WORKLOADS_H_
