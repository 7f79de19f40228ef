#include "graph/serde.h"

#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace sc::graph {

std::string Serialize(const Graph& g) {
  std::ostringstream out;
  out << "# S/C dependency graph: " << g.num_nodes() << " nodes, "
      << g.num_edges() << " edges\n";
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const NodeInfo& n = g.node(i);
    out << "node " << n.name << ' ' << n.size_bytes << ' ' << n.speedup_score
        << ' ' << n.compute_seconds << ' ' << n.base_input_bytes << ' '
        << n.file_count << ' ' << n.disk_bytes << '\n';
  }
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    for (NodeId c : g.children(i)) {
      out << "edge " << g.node(i).name << ' ' << g.node(c).name << '\n';
    }
  }
  return out.str();
}

bool Deserialize(const std::string& text, Graph* g, std::string* error) {
  *g = Graph();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = StrFormat("line %d: %s", lineno, msg.c_str());
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream fields(trimmed);
    std::string directive;
    fields >> directive;
    if (directive == "node") {
      NodeInfo info;
      fields >> info.name;
      if (info.name.empty()) return fail("node line missing name");
      // Optional numeric fields.
      fields >> info.size_bytes >> info.speedup_score >>
          info.compute_seconds >> info.base_input_bytes >> info.file_count >>
          info.disk_bytes;
      if (info.file_count <= 0) info.file_count = 1.0;
      if (g->FindByName(info.name).has_value()) {
        return fail("duplicate node '" + info.name + "'");
      }
      g->AddNode(std::move(info));
    } else if (directive == "edge") {
      std::string from, to;
      fields >> from >> to;
      auto from_id = g->FindByName(from);
      auto to_id = g->FindByName(to);
      if (!from_id.has_value()) return fail("unknown node '" + from + "'");
      if (!to_id.has_value()) return fail("unknown node '" + to + "'");
      if (!g->AddEdge(*from_id, *to_id)) {
        return fail("invalid or duplicate edge " + from + " -> " + to);
      }
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  std::string validate_error;
  if (!g->Validate(&validate_error)) {
    if (error != nullptr) *error = validate_error;
    return false;
  }
  return true;
}

bool SaveToFile(const Graph& g, const std::string& path, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << Serialize(g);
  return static_cast<bool>(out);
}

bool LoadFromFile(const std::string& path, Graph* g, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "' for reading";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Deserialize(buffer.str(), g, error);
}

}  // namespace sc::graph
