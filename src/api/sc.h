#ifndef SC_API_SC_H_
#define SC_API_SC_H_

/// \file
/// Single-include public facade for the S/C library.
///
/// Typical usage (see examples/quickstart.cpp):
///
///   sc::graph::Graph g = ...;                   // dependency graph
///   sc::cost::SpeedupEstimator est{sc::cost::CostModel{}};
///   est.AnnotateGraph(&g);                      // speedup scores T
///   sc::opt::Optimizer optimizer;
///   auto result = optimizer.Optimize(g, budget);  // S/C Opt (Alg. 2)
///   // result.plan: execution order + flagged nodes; feed it to the
///   // simulator (sc::sim::SimulateRun) or the Controller
///   // (sc::runtime::Controller::Run).
///
/// For concurrent multi-tenant serving, submit jobs to
/// sc::service::RefreshService instead (see
/// examples/multi_tenant_service.cpp): it queues, arbitrates the shared
/// Memory-Catalog budget, caches plans, and drives Controllers on worker
/// threads.

#include "common/bytes.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "cost/cost_model.h"
#include "cost/speedup.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "graph/fingerprint.h"
#include "graph/graph.h"
#include "graph/topo.h"
#include "opt/alternating.h"
#include "opt/constraints.h"
#include "opt/ma_dfs.h"
#include "opt/memory_usage.h"
#include "opt/mkp.h"
#include "opt/optimizer.h"
#include "opt/schedulers.h"
#include "opt/selectors.h"
#include "opt/stages.h"
#include "runtime/controller.h"
#include "runtime/lane_pool.h"
#include "runtime/stage_scheduler.h"
#include "service/budget_broker.h"
#include "service/metrics.h"
#include "service/parallelism_broker.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "sim/cluster.h"
#include "sim/lru_cache.h"
#include "sim/refresh_sim.h"
#include "storage/memory_catalog.h"
#include "storage/shared_catalog.h"
#include "storage/throttled_disk.h"
#include "workload/dag_gen.h"
#include "workload/datagen.h"
#include "workload/scale_model.h"
#include "workload/workloads.h"

#endif  // SC_API_SC_H_
