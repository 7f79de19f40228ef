#ifndef SC_GRAPH_GRAPH_H_
#define SC_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace sc::graph {

/// Node identifier: dense index into the graph's node array.
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Per-node metadata for one MV update (paper §IV, Table II).
///
/// `size_bytes` is s_i: memory required to keep the node's output resident.
/// `speedup_score` is t_i: estimated end-to-end seconds saved by flagging
/// the node (keeping its output in the Memory Catalog).
/// `compute_seconds` and `base_input_bytes` are execution metadata used by
/// the simulator / engine, not by the optimizer itself.
struct NodeInfo {
  std::string name;
  std::int64_t size_bytes = 0;
  double speedup_score = 0.0;
  double compute_seconds = 0.0;
  /// Bytes read from base tables (inputs that are not parent MVs).
  std::int64_t base_input_bytes = 0;
  /// Bytes of the node's output file on external storage, which the
  /// disk's reads and writes are charged for (profiled). 0 means unknown:
  /// disk costs then fall back to `size_bytes` (see DiskBytes).
  std::int64_t disk_bytes = 0;
  /// Relative number of files/partitions this MV materializes into
  /// (scales the per-table open/commit overheads of the cost model;
  /// larger tables split into more files on warehouse storage).
  double file_count = 1.0;
};

/// Bytes a disk read or write of the node's output moves: the profiled
/// file size when known, else the in-memory size.
inline std::int64_t DiskBytes(const NodeInfo& info) {
  return info.disk_bytes > 0 ? info.disk_bytes : info.size_bytes;
}

/// Directed acyclic dependency graph of an MV refresh run (paper §IV).
///
/// Nodes are individual MV updates; an edge (u, v) means v consumes the
/// output of u (u must execute before v). The graph owns per-node metadata
/// and adjacency in both directions.
///
/// Invariants: node ids are dense [0, num_nodes); duplicate edges are
/// rejected; self-edges are rejected. Acyclicity is checked on demand via
/// Validate() (construction order is unconstrained).
class Graph {
 public:
  Graph() = default;

  /// Adds a node and returns its id. Names must be unique and non-empty.
  NodeId AddNode(NodeInfo info);

  /// Convenience: adds a node with just a name and size.
  NodeId AddNode(const std::string& name, std::int64_t size_bytes = 0,
                 double speedup_score = 0.0);

  /// Adds dependency edge `from` -> `to` (to reads from's output).
  /// Returns false (and does nothing) for self-edges, duplicate edges, or
  /// out-of-range ids.
  bool AddEdge(NodeId from, NodeId to);

  bool HasEdge(NodeId from, NodeId to) const;

  std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(nodes_.size());
  }
  std::int64_t num_edges() const { return num_edges_; }

  const NodeInfo& node(NodeId id) const { return nodes_[ValidateId(id)]; }
  NodeInfo& mutable_node(NodeId id) { return nodes_[ValidateId(id)]; }

  /// Downstream consumers of `id` (nodes that read its output).
  const std::vector<NodeId>& children(NodeId id) const {
    return children_[ValidateId(id)];
  }
  /// Upstream dependencies of `id`.
  const std::vector<NodeId>& parents(NodeId id) const {
    return parents_[ValidateId(id)];
  }

  /// Nodes with no parents (read only base tables).
  std::vector<NodeId> Roots() const;
  /// Nodes with no children (terminal MVs).
  std::vector<NodeId> Leaves() const;

  /// Looks up a node id by name; nullopt if absent.
  std::optional<NodeId> FindByName(const std::string& name) const;

  /// True iff the graph is acyclic. `error` (optional) receives a
  /// description of the first problem found.
  bool Validate(std::string* error = nullptr) const;

  /// Sum of all node sizes.
  std::int64_t TotalSize() const;
  /// Sum of all speedup scores.
  double TotalScore() const;

 private:
  NodeId ValidateId(NodeId id) const;

  std::vector<NodeInfo> nodes_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<std::vector<NodeId>> parents_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::int64_t num_edges_ = 0;
};

}  // namespace sc::graph

#endif  // SC_GRAPH_GRAPH_H_
