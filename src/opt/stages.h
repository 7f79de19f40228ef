#ifndef SC_OPT_STAGES_H_
#define SC_OPT_STAGES_H_

#include "cost/cost_model.h"
#include "opt/types.h"

namespace sc::opt {

/// Converts a total execution order (MA-DFS output, or any topological
/// order) into its antichain stage decomposition: stage(v) = 0 for roots,
/// otherwise 1 + max stage over v's DAG parents. `order` must be a valid
/// topological order of `g` (ValidatePlan enforces this upstream); it
/// determines the intra-stage listing (dispatch priority), not the stage
/// assignment itself, so the decomposition of any two topological orders
/// differs only in intra-stage ordering.
StageDecomposition DecomposeStages(const graph::Graph& g,
                                   const graph::Order& order);

/// Width of the widest antichain stage of `order`, without materializing
/// the per-stage node lists (cheap upper bound on useful intra-job
/// parallelism, used for lane leasing).
std::size_t StageWidth(const graph::Graph& g, const graph::Order& order);

/// Per-node wall-cost estimates feeding the runtime's inline-dispatch
/// decision: seconds[v] = compute_seconds + (when `charge_io`) the
/// modeled read of v's inputs (base bytes + parent output sizes) and —
/// for unflagged nodes, whose write blocks the lane — the modeled output
/// write. `charge_io` is false when storage runs at native speed (no
/// throttle emulation), where only compute occupies the lane
/// meaningfully. Nodes without execution metadata (never profiled)
/// estimate to +infinity: with unknown cost the runtime must assume the
/// node is large and keep it on a lane.
std::vector<double> EstimateNodeSeconds(const graph::Graph& g,
                                        const FlagSet& flags,
                                        const cost::CostModel& model,
                                        bool charge_io);

/// Interior morsel budget for one node: how many morsels its operators
/// may fan out into so each morsel lands near `target_seconds` of work.
/// ceil(est_seconds / target_seconds), clamped to [1, max_morsels].
/// Unprofiled nodes (est = +infinity) get the full budget — with unknown
/// cost the runtime assumes the node is large and lets the engine's
/// per-operator row floor make the final call at execution time. A
/// non-positive target disables morsels (returns 1).
int MorselBudget(double est_seconds, double target_seconds,
                 int max_morsels);

}  // namespace sc::opt

#endif  // SC_OPT_STAGES_H_
