#include "engine/executor.h"

#include <stdexcept>

namespace sc::engine {

TablePtr MapResolver::Resolve(const std::string& name,
                              const ColumnSet* columns) {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::out_of_range("MapResolver: unknown table '" + name + "'");
  }
  return SelectColumns(it->second, columns);
}

namespace {

/// What a child must produce when its parent needs `needs` and the node
/// itself reads `own`: their union, or null (every column) when the
/// parent needs every column.
const ColumnSet* Widen(const ColumnSet* needs, ColumnSet* own) {
  if (needs == nullptr) return nullptr;
  own->insert(needs->begin(), needs->end());
  return own;
}

TablePtr Share(Table table) {
  return std::make_shared<const Table>(std::move(table));
}

/// Evaluates `plan` when its parent needs the columns `needs` (null:
/// every column). The result holds at least those columns, with the
/// values of the unpruned plan; it may hold others.
TablePtr Execute(const PlanNode& plan, TableResolver& resolver,
                 const ColumnSet* needs) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan: {
      TablePtr t = resolver.Resolve(plan.table_name, needs);
      if (t == nullptr) {
        throw std::out_of_range("ExecutePlan: null table '" +
                                plan.table_name + "'");
      }
      return t;
    }
    case PlanNode::Kind::kFilter: {
      ColumnSet own;
      CollectColumns(*plan.predicate, &own);
      return Share(FilterTable(
          *Execute(*plan.child, resolver, Widen(needs, &own)),
          *plan.predicate));
    }
    case PlanNode::Kind::kProject: {
      ColumnSet own;
      for (const NamedExpr& projection : plan.projections) {
        CollectColumns(*projection.expr, &own);
      }
      return Share(ProjectTable(*Execute(*plan.child, resolver, &own),
                                plan.projections));
    }
    case PlanNode::Kind::kHashJoin: {
      ColumnSet left(plan.left_keys.begin(), plan.left_keys.end());
      ColumnSet right(plan.right_keys.begin(), plan.right_keys.end());
      // A right column whose name a left column hides may surface once
      // that left column is pruned; no parent needs it (a needed name
      // is kept on the left), so it only ever rides along.
      return Share(HashJoinTables(
          *Execute(*plan.child, resolver, Widen(needs, &left)),
          *Execute(*plan.right, resolver, Widen(needs, &right)),
          plan.left_keys, plan.right_keys));
    }
    case PlanNode::Kind::kAggregate: {
      ColumnSet own(plan.group_keys.begin(), plan.group_keys.end());
      for (const AggSpec& agg : plan.aggregates) {
        if (agg.arg != nullptr) CollectColumns(*agg.arg, &own);
      }
      return Share(AggregateTable(*Execute(*plan.child, resolver, &own),
                                  plan.group_keys, plan.aggregates));
    }
    case PlanNode::Kind::kSort: {
      ColumnSet own(plan.sort_keys.begin(), plan.sort_keys.end());
      return Share(SortTable(
          *Execute(*plan.child, resolver, Widen(needs, &own)),
          plan.sort_keys, plan.sort_descending));
    }
    case PlanNode::Kind::kLimit:
      return Share(
          LimitTable(*Execute(*plan.child, resolver, needs), plan.limit));
    case PlanNode::Kind::kUnionAll: {
      // Unpruned, both inputs have one schema. Pruned, each is cut to
      // exactly the needed columns so they still match: a Filter or
      // HashJoin below may leave different extra columns on each side.
      // An empty set would keep each side's own first column, so the
      // inputs are then read whole instead.
      const ColumnSet* sides =
          needs != nullptr && needs->empty() ? nullptr : needs;
      return Share(UnionAllTables(
          *SelectColumns(Execute(*plan.child, resolver, sides), sides),
          *SelectColumns(Execute(*plan.right, resolver, sides), sides)));
    }
  }
  throw std::logic_error("ExecutePlan: bad plan kind");
}

}  // namespace

TablePtr ExecutePlan(const PlanNode& plan, TableResolver& resolver) {
  return Execute(plan, resolver, nullptr);
}

}  // namespace sc::engine
