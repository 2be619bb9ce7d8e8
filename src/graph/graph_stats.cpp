#include "graph/graph_stats.hpp"

#include <algorithm>

namespace fluxion::graph {

namespace {
void walk(const ResourceGraph& g, VertexId v, std::size_t depth,
          GraphStats& stats) {
  const Vertex& vx = g.vertex(v);
  ++stats.vertices;
  ++stats.status_vertices[static_cast<std::size_t>(vx.status)];
  stats.depth = std::max(stats.depth, depth);
  stats.type_vertices[g.type_name(vx.type)] += 1;
  stats.type_units[g.type_name(vx.type)] += vx.size;
  for (const Edge& e : g.out_edges(v)) {
    if (e.relation == g.in_rel() || !g.vertex(e.dst).alive) continue;
    stats.subsystem_edges[g.subsystem_name(e.subsystem)] += 1;
  }
  bool leaf = true;
  for (VertexId c : g.containment_children(v)) {
    leaf = false;
    ++stats.edges;
    walk(g, c, depth + 1, stats);
  }
  if (leaf) ++stats.leaves;
}
}  // namespace

GraphStats compute_stats(const ResourceGraph& g, VertexId root) {
  GraphStats stats;
  if (root < g.vertex_count() && g.vertex(root).alive) {
    walk(g, root, 1, stats);
  }
  return stats;
}

std::string render_stats(const GraphStats& stats) {
  std::string out;
  out += "vertices: " + std::to_string(stats.vertices) +
         ", containment edges: " + std::to_string(stats.edges) +
         ", depth: " + std::to_string(stats.depth) +
         ", leaves: " + std::to_string(stats.leaves) + "\n";
  const std::size_t non_up =
      stats.status_vertices[static_cast<std::size_t>(ResourceStatus::down)] +
      stats.status_vertices[static_cast<std::size_t>(ResourceStatus::drained)];
  if (non_up != 0) {
    out += "status:";
    for (std::size_t s = 0; s < kStatusCount; ++s) {
      if (stats.status_vertices[s] == 0) continue;
      out += std::string(" ") + status_name(static_cast<ResourceStatus>(s)) +
             "=" + std::to_string(stats.status_vertices[s]);
    }
    out += "\n";
  }
  for (const auto& [type, count] : stats.type_vertices) {
    out += "  " + type + ": " + std::to_string(count) + " vertices";
    const auto units = stats.type_units.at(type);
    if (units != static_cast<std::int64_t>(count)) {
      out += " (" + std::to_string(units) + " units)";
    }
    out += "\n";
  }
  for (const auto& [subsystem, count] : stats.subsystem_edges) {
    out += "  subsystem " + subsystem + ": " + std::to_string(count) +
           " edges\n";
  }
  return out;
}

}  // namespace fluxion::graph
