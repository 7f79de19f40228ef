#include "opt/stages.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sc::opt {

std::size_t StageDecomposition::width() const {
  std::size_t widest = 0;
  for (const auto& stage : stages) widest = std::max(widest, stage.size());
  return widest;
}

StageDecomposition DecomposeStages(const graph::Graph& g,
                                   const graph::Order& order) {
  const std::int32_t n = g.num_nodes();
  if (static_cast<std::int32_t>(order.sequence.size()) != n) {
    throw std::invalid_argument(
        "DecomposeStages: order does not cover the graph");
  }
  StageDecomposition result;
  result.stage_of.assign(n, -1);
  for (const graph::NodeId v : order.sequence) {
    std::int32_t stage = 0;
    for (const graph::NodeId p : g.parents(v)) {
      if (result.stage_of[p] < 0) {
        throw std::invalid_argument(
            "DecomposeStages: order is not topological at node " +
            g.node(v).name);
      }
      stage = std::max(stage, result.stage_of[p] + 1);
    }
    result.stage_of[v] = stage;
    if (stage >= result.num_stages()) {
      result.stages.resize(static_cast<std::size_t>(stage) + 1);
    }
    // Iterating order.sequence keeps each stage sorted by order position.
    result.stages[static_cast<std::size_t>(stage)].push_back(v);
  }
  return result;
}

std::size_t StageWidth(const graph::Graph& g, const graph::Order& order) {
  const std::int32_t n = g.num_nodes();
  if (static_cast<std::int32_t>(order.sequence.size()) != n) {
    throw std::invalid_argument(
        "StageWidth: order does not cover the graph");
  }
  std::vector<std::int32_t> stage_of(static_cast<std::size_t>(n), -1);
  std::vector<std::size_t> counts;
  std::size_t widest = 0;
  for (const graph::NodeId v : order.sequence) {
    std::int32_t stage = 0;
    for (const graph::NodeId p : g.parents(v)) {
      stage = std::max(stage, stage_of[static_cast<std::size_t>(p)] + 1);
    }
    stage_of[static_cast<std::size_t>(v)] = stage;
    if (static_cast<std::size_t>(stage) >= counts.size()) {
      counts.resize(static_cast<std::size_t>(stage) + 1, 0);
    }
    widest = std::max(widest, ++counts[static_cast<std::size_t>(stage)]);
  }
  return widest;
}

std::vector<double> EstimateNodeSeconds(const graph::Graph& g,
                                        const FlagSet& flags,
                                        const cost::CostModel& model,
                                        bool charge_io) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> seconds(n, 0.0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const graph::NodeInfo& info = g.node(v);
    if (info.compute_seconds <= 0.0 && info.size_bytes <= 0) {
      // Never profiled: cost unknown — assume large.
      seconds[static_cast<std::size_t>(v)] =
          std::numeric_limits<double>::infinity();
      continue;
    }
    double est = info.compute_seconds;
    if (charge_io) {
      std::int64_t read_bytes = std::max<std::int64_t>(
          0, info.base_input_bytes);
      for (const graph::NodeId p : g.parents(v)) {
        read_bytes += std::max<std::int64_t>(0, g.node(p).size_bytes);
      }
      const bool flagged = static_cast<std::size_t>(v) < flags.size() &&
                           flags[static_cast<std::size_t>(v)];
      // Flagged outputs enter the Memory Catalog and write in the
      // background — only unflagged nodes block the lane on the write.
      const std::int64_t write_bytes =
          flagged ? 0 : std::max<std::int64_t>(0, info.size_bytes);
      est = model.NodeExecSeconds(info.compute_seconds, read_bytes,
                                  write_bytes, info.file_count);
    }
    seconds[static_cast<std::size_t>(v)] = est;
  }
  return seconds;
}

int MorselBudget(double est_seconds, double target_seconds,
                 int max_morsels) {
  if (target_seconds <= 0 || max_morsels <= 1) return 1;
  if (!(est_seconds > target_seconds)) return 1;  // also rejects NaN
  const double ratio = est_seconds / target_seconds;
  if (!(ratio < static_cast<double>(max_morsels))) return max_morsels;
  return static_cast<int>(std::ceil(ratio));
}

}  // namespace sc::opt
