#ifndef SC_ENGINE_EXECUTOR_H_
#define SC_ENGINE_EXECUTOR_H_

#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "engine/operators.h"
#include "engine/plan.h"
#include "engine/table.h"

namespace sc::engine {

/// Resolves scan leaves to tables. The Controller supplies a resolver that
/// serves parent MVs from the Memory Catalog when resident and from
/// external storage otherwise — which is exactly how S/C short-circuits
/// reads without changing plans.
///
/// Thread-safety contract: the parallel runtime executes independent DAG
/// nodes concurrently, so a resolver shared across node executions must
/// tolerate concurrent Resolve calls. (The Controller's per-node
/// FnResolver closes over thread-safe stores — MemoryCatalog and
/// ThrottledDisk — plus lane-local timing state, so each lane resolves
/// independently.)
///
/// `columns` names the columns the plan uses from the table (null: all
/// of them; see ColumnSet). A resolver may return just those, in table
/// order, or the whole table: the executor is correct either way, and
/// only reads less when the resolver prunes.
class TableResolver {
 public:
  virtual ~TableResolver() = default;
  /// Returns the table for `name`; throws std::out_of_range if unknown.
  virtual TablePtr Resolve(const std::string& name,
                           const ColumnSet* columns) = 0;
};

/// Simple in-memory resolver backed by a name -> table hash map (it sits
/// on every scan resolve, so lookups are O(1) rather than a red-black
/// tree walk). Returns the stored table itself when every column is
/// needed, and a table of the needed columns otherwise. Thread-safe:
/// concurrent Resolve calls (executor lanes) may overlap each other and
/// a Put (reader-writer lock); the returned TablePtr stays valid across
/// a concurrent Put of the same name.
class MapResolver : public TableResolver {
 public:
  MapResolver() = default;
  explicit MapResolver(std::unordered_map<std::string, TablePtr> tables)
      : tables_(std::move(tables)) {}

  /// Pre-sizes the hash map for `tables` entries (callers pass the
  /// workload's node + base-table count) so Put never rehashes while
  /// lanes hold Resolve results.
  void Reserve(std::size_t tables) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    tables_.reserve(tables);
  }
  void Put(const std::string& name, TablePtr table) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    tables_[name] = std::move(table);
  }
  bool Contains(const std::string& name) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return tables_.count(name) > 0;
  }
  TablePtr Resolve(const std::string& name,
                   const ColumnSet* columns) override;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, TablePtr> tables_;
};

/// Resolver that delegates to a callback (used by the Controller).
class FnResolver : public TableResolver {
 public:
  using Fn = std::function<TablePtr(const std::string&, const ColumnSet*)>;
  explicit FnResolver(Fn fn) : fn_(std::move(fn)) {}
  TablePtr Resolve(const std::string& name,
                   const ColumnSet* columns) override {
    return fn_(name, columns);
  }

 private:
  Fn fn_;
};

/// Recursively evaluates `plan`, resolving scans through `resolver`.
///
/// Column needs are pushed down to the scans on the way: the root needs
/// every column; Project and Aggregate need only the columns their
/// expressions, group keys and aggregate arguments reference; Filter,
/// Sort and HashJoin add their predicate, sort keys or join keys to what
/// their parent needs; Limit and UnionAll pass their parent's needs
/// through. Each scan asks the resolver for just its needs, and a scan
/// that needs every column hands out the resolved table itself, with no
/// copy. The result has exactly the plan's output schema.
TablePtr ExecutePlan(const PlanNode& plan, TableResolver& resolver);

}  // namespace sc::engine

#endif  // SC_ENGINE_EXECUTOR_H_
