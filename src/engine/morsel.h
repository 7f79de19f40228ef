#ifndef SC_ENGINE_MORSEL_H_
#define SC_ENGINE_MORSEL_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace sc::engine {

/// Executes the interior morsels of one operator. The engine defines only
/// this interface; the runtime implements it on the service-wide LanePool
/// (runtime::LaneMorselRunner), which is how intra-operator parallelism
/// borrows the same execution lanes that run whole DAG nodes without the
/// engine depending on the runtime layer.
class MorselRunner {
 public:
  virtual ~MorselRunner() = default;

  /// Runs `fn(0) .. fn(count - 1)`, possibly concurrently, and blocks
  /// until every call returned. The calling thread always participates,
  /// so progress never depends on helper threads being available. Any
  /// exception a task throws is rethrown on the caller after all tasks
  /// finish. `fn` must tolerate concurrent invocation for distinct
  /// indices (morsel bodies write disjoint ranges).
  virtual void Run(std::size_t count,
                   const std::function<void(std::size_t)>& fn) = 0;
};

/// Per-node morsel execution context. The runtime installs one around a
/// node's ExecuteNode (MorselScope) after deciding — from the PR-5 cost
/// model — how far the node's interior may fan out; operators consult
/// CurrentMorselContext() and split the passes that split cleanly when
/// the input is large enough to pay for it: key hashing over row ranges,
/// the join's per-column output gather and the aggregate's
/// per-aggregate pass 2. The join's build/probe and the aggregate's
/// grouping run on one sequential hash table at every morsel count. A
/// null context (or max_morsels <= 1) keeps every operator on the exact
/// pre-morsel single-threaded code path.
class MorselContext {
 public:
  MorselContext(MorselRunner* runner, int max_morsels,
                std::size_t min_morsel_rows)
      : runner_(runner),
        max_morsels_(max_morsels),
        min_morsel_rows_(min_morsel_rows < 1 ? 1 : min_morsel_rows) {}

  MorselRunner* runner() const { return runner_; }
  int max_morsels() const { return max_morsels_; }
  std::size_t min_morsel_rows() const { return min_morsel_rows_; }

  /// Morsels to split `rows` input rows into: bounded by the runtime's
  /// per-node budget (max_morsels) and by the row floor — a morsel below
  /// min_morsel_rows pays more in dispatch than it saves. Returns 1 when
  /// fan-out is not worth it (the caller then takes the sequential path).
  std::size_t PlanMorsels(std::size_t rows) const;

  /// Hash-buffer scratch pool: HashKeyRows buffers are borrowed and
  /// returned here so the morsels of one node (join build + probe sides,
  /// several operators of one plan tree) reuse allocations instead of
  /// growing a fresh vector each time. Single-threaded by contract: only
  /// the node's driving thread borrows/returns, never morsel helpers.
  std::vector<std::uint64_t> BorrowHashBuffer(std::size_t size);
  void ReturnHashBuffer(std::vector<std::uint64_t> buffer);

 private:
  MorselRunner* runner_;
  int max_morsels_;
  std::size_t min_morsel_rows_;
  std::vector<std::vector<std::uint64_t>> hash_scratch_;
};

/// The context installed for the calling thread, or null. Operators
/// running outside any scope (single-morsel Controller nodes, direct
/// library use, morsel helper tasks) see null and stay single-threaded.
MorselContext* CurrentMorselContext();

/// RAII installer: the runtime wraps a node's execution in one scope so
/// every operator of that node's plan tree sees the same context. Scopes
/// nest (the previous context is restored on destruction), though the
/// runtime never nests them in practice.
class MorselScope {
 public:
  explicit MorselScope(MorselContext* context);
  ~MorselScope();

  MorselScope(const MorselScope&) = delete;
  MorselScope& operator=(const MorselScope&) = delete;

 private:
  MorselContext* previous_;
};

/// Splits `rows` into `morsels` contiguous ranges: morsel m covers
/// [bounds[m], bounds[m+1]). Ranges differ in size by at most one row and
/// concatenate in morsel order to [0, rows), so concurrent morsels
/// write disjoint ranges of one shared buffer.
std::vector<std::size_t> MorselBounds(std::size_t rows,
                                      std::size_t morsels);

}  // namespace sc::engine

#endif  // SC_ENGINE_MORSEL_H_
