#include "sim/refresh_sim.h"

#include <algorithm>
#include <cassert>

#include "opt/memory_usage.h"
#include "sim/device.h"

namespace sc::sim {

namespace {

/// Scaled cost helpers honouring the cluster knobs.
struct ScaledCosts {
  explicit ScaledCosts(const SimOptions& options)
      : model(options.device), options(options) {}

  double DiskRead(std::int64_t bytes, double files) const {
    return model.DiskReadSeconds(bytes, files) / options.io_scale;
  }
  double DiskWriteChannel(std::int64_t bytes) const {
    return model.DiskWriteChannelSeconds(bytes) / options.io_scale;
  }
  double WriteOverhead(std::int64_t bytes, double files) const {
    if (bytes <= 0) return 0.0;
    return model.profile().table_write_overhead * files / options.io_scale;
  }
  double MemRead(std::int64_t bytes) const {
    return model.MemReadSeconds(bytes);
  }
  double MemWrite(std::int64_t bytes) const {
    return model.MemWriteSeconds(bytes);
  }
  double Compute(double seconds) const {
    return seconds / options.compute_scale;
  }

  cost::CostModel model;
  const SimOptions& options;
};

}  // namespace

RunResult SimulateRun(const graph::Graph& g, const opt::Plan& plan,
                      const SimOptions& options) {
  const std::int32_t n = g.num_nodes();
  assert(plan.order.sequence.size() == static_cast<std::size_t>(n));
  const ScaledCosts costs(options);

  RunResult result;
  result.per_node.resize(n);

  // State.
  std::vector<double> materialized_at(n, 0.0);  // disk copy ready time
  std::vector<bool> resident(n, false);         // in Memory Catalog now
  std::vector<std::int32_t> pending_children(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    pending_children[v] = static_cast<std::int32_t>(g.children(v).size());
  }
  double now = 0.0;
  // The storage write channel serializes the bandwidth-bound portion of
  // writes; per-table metadata/commit overheads proceed concurrently.
  FifoChannel write_channel;
  std::int64_t memory_used = 0;

  // Flagged nodes whose dependants have all executed. They are kept
  // resident (lazy release) until memory is needed or the run ends; a
  // release must wait for the node's materialization to complete, so we
  // free the earliest-finishing writes first.
  std::vector<graph::NodeId> releasable;

  auto mark_releasable = [&](graph::NodeId v) {
    if (resident[v]) releasable.push_back(v);
  };

  // Frees releasable entries (waiting on their materialization if it is
  // still in flight) until `needed` bytes fit within the budget.
  auto make_room = [&](std::int64_t needed) {
    while (memory_used + needed > options.budget && !releasable.empty()) {
      std::size_t earliest = 0;
      for (std::size_t i = 1; i < releasable.size(); ++i) {
        if (materialized_at[releasable[i]] <
            materialized_at[releasable[earliest]]) {
          earliest = i;
        }
      }
      const graph::NodeId victim = releasable[earliest];
      releasable[earliest] = releasable.back();
      releasable.pop_back();
      now = std::max(now, materialized_at[victim]);
      resident[victim] = false;
      memory_used -= g.node(victim).size_bytes;
    }
  };

  for (graph::NodeId v : plan.order.sequence) {
    NodeTiming& timing = result.per_node[v];
    timing.start = now;

    // ---- Read phase: parents, then base-table inputs. ----
    double read_seconds = 0.0;
    for (graph::NodeId p : g.parents(v)) {
      if (resident[p]) {
        read_seconds += costs.MemRead(g.node(p).size_bytes);
      } else {
        // The parent is on disk: unflagged parents wrote synchronously and
        // flagged parents are only released after materialization.
        read_seconds += costs.DiskRead(graph::DiskBytes(g.node(p)),
                                       g.node(p).file_count);
      }
    }
    read_seconds +=
        costs.DiskRead(g.node(v).base_input_bytes, g.node(v).file_count);
    now += read_seconds;
    timing.read_seconds = read_seconds;

    // ---- Compute phase. ----
    const double compute_seconds = costs.Compute(g.node(v).compute_seconds);
    now += compute_seconds;
    timing.compute_seconds = compute_seconds;

    // ---- Output phase: memory costs on the in-memory size, disk
    // costs on the file size. ----
    const std::int64_t out_bytes = g.node(v).size_bytes;
    const std::int64_t disk_bytes = graph::DiskBytes(g.node(v));
    if (plan.flags[v]) {
      // Create in the Memory Catalog, releasing finished entries first.
      make_room(out_bytes);
      const double create_seconds = costs.MemWrite(out_bytes);
      now += create_seconds;
      timing.write_seconds = create_seconds;
      timing.output_in_memory = true;
      resident[v] = true;
      memory_used += out_bytes;
      result.peak_memory = std::max(result.peak_memory, memory_used);
      if (memory_used > options.budget) result.exceeded_budget = true;
      // Materialize through the write channel; overhead overlaps.
      const double channel_done =
          write_channel.Submit(now, costs.DiskWriteChannel(disk_bytes));
      if (options.background_materialize) {
        materialized_at[v] = channel_done + costs.WriteOverhead(disk_bytes, g.node(v).file_count);
      } else {
        now = channel_done + costs.WriteOverhead(disk_bytes, g.node(v).file_count);
        materialized_at[v] = now;
        timing.write_seconds += now - timing.start - read_seconds -
                                compute_seconds - create_seconds;
      }
    } else {
      // Blocking write: queue behind in-flight background writes, then pay
      // the full per-table overhead.
      const double channel_done =
          write_channel.Submit(now, costs.DiskWriteChannel(disk_bytes));
      const double done = channel_done + costs.WriteOverhead(disk_bytes, g.node(v).file_count);
      timing.write_seconds = done - now;
      now = done;
      materialized_at[v] = now;
    }
    timing.end = now;

    // Mark nodes whose last dependant just executed as releasable.
    if (plan.flags[v] && pending_children[v] == 0) mark_releasable(v);
    for (graph::NodeId p : g.parents(v)) {
      if (--pending_children[p] == 0 && plan.flags[p]) mark_releasable(p);
    }

    result.total_read_seconds += timing.read_seconds;
    result.total_compute_seconds += timing.compute_seconds;
    result.total_write_seconds += timing.write_seconds;
  }

  // Run ends when all nodes executed and every materialization finished.
  double final_write = write_channel.free_at();
  for (graph::NodeId v = 0; v < n; ++v) {
    final_write = std::max(final_write, materialized_at[v]);
  }
  result.makespan = std::max(now, final_write);
  result.total_query_seconds = result.total_read_seconds +
                               result.total_compute_seconds +
                               result.total_write_seconds;
  return result;
}

RunResult SimulateNoOpt(const graph::Graph& g, const SimOptions& options) {
  opt::Plan plan;
  plan.order = graph::KahnTopologicalOrder(g);
  plan.flags = opt::EmptyFlags(g.num_nodes());
  return SimulateRun(g, plan, options);
}

double SpeedupOverNoOpt(const graph::Graph& g, const opt::Plan& plan,
                        const SimOptions& options) {
  const double baseline = SimulateNoOpt(g, options).makespan;
  const double optimized = SimulateRun(g, plan, options).makespan;
  return optimized > 0 ? baseline / optimized : 1.0;
}

}  // namespace sc::sim
