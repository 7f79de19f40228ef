#ifndef SC_GRAPH_SERDE_H_
#define SC_GRAPH_SERDE_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace sc::graph {

/// Line-oriented text format for dependency graphs, so that workloads can
/// be exchanged with external tools (dbt-style DAG dumps). Format:
///
///   # comment
///   node <name> <size_bytes> <speedup_score> <compute_seconds> <input_bytes>
///        <file_count> <disk_bytes>
///   edge <from_name> <to_name>
///
/// Fields after <name> are optional (default 0; file_count defaults to 1). Unknown directives are an
/// error. Edge lines must refer to previously declared nodes.

/// Serializes `g` into the text format.
std::string Serialize(const Graph& g);

/// Parses the text format. On failure returns false and sets `error`.
bool Deserialize(const std::string& text, Graph* g, std::string* error);

/// File helpers; return false on I/O or parse failure.
bool SaveToFile(const Graph& g, const std::string& path, std::string* error);
bool LoadFromFile(const std::string& path, Graph* g, std::string* error);

}  // namespace sc::graph

#endif  // SC_GRAPH_SERDE_H_
