#include "writers/jgf.hpp"

#include <unordered_set>

namespace fluxion::writers {

namespace {

Json vertex_node(const graph::ResourceGraph& g, const graph::Vertex& v,
                 std::int64_t units, bool exclusive) {
  Json paths = Json::object();
  paths.set("containment", v.path);
  Json meta = Json::object();
  meta.set("type", g.type_name(v.type))
      .set("basename", v.basename)
      .set("name", v.name)
      .set("uniq_id", v.uniq_id)
      .set("rank", v.rank)
      .set("size", units)
      .set("exclusive", exclusive)
      .set("paths", std::move(paths));
  if (v.status != graph::ResourceStatus::up) {
    meta.set("status", graph::status_name(v.status));
  }
  if (!v.properties.empty()) {
    Json props = Json::object();
    for (const auto& [k, val] : v.properties) props.set(k, val);
    meta.set("properties", std::move(props));
  }
  Json node = Json::object();
  node.set("id", std::to_string(v.id)).set("metadata", std::move(meta));
  return node;
}

Json edge_node(graph::VertexId src, graph::VertexId dst,
               std::string_view subsystem, std::string_view relation) {
  Json meta = Json::object();
  meta.set("subsystem", subsystem).set("relation", relation);
  Json edge = Json::object();
  edge.set("source", std::to_string(src))
      .set("target", std::to_string(dst))
      .set("metadata", std::move(meta));
  return edge;
}

Json document(Json nodes, Json edges) {
  Json graph = Json::object();
  graph.set("nodes", std::move(nodes)).set("edges", std::move(edges));
  Json root = Json::object();
  root.set("graph", std::move(graph));
  return root;
}

}  // namespace

Json graph_to_jgf(const graph::ResourceGraph& g) {
  Json nodes = Json::array();
  Json edges = Json::array();
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    const graph::Vertex& vx = g.vertex(v);
    if (!vx.alive) continue;
    nodes.push(vertex_node(g, vx, vx.size, false));
    for (const graph::Edge& e : g.out_edges(v)) {
      if (!g.vertex(e.dst).alive) continue;
      edges.push(edge_node(v, e.dst, g.subsystem_name(e.subsystem),
                           g.relation_name(e.relation)));
    }
  }
  return document(std::move(nodes), std::move(edges));
}

Json match_to_jgf(const graph::ResourceGraph& g,
                  const traverser::MatchResult& result) {
  std::unordered_set<graph::VertexId> selected;
  for (const auto& ru : result.resources) selected.insert(ru.vertex);

  Json nodes = Json::array();
  Json edges = Json::array();
  for (const auto& ru : result.resources) {
    const graph::Vertex& vx = g.vertex(ru.vertex);
    nodes.push(vertex_node(g, vx, ru.units, ru.exclusive));
    // Connect to the nearest selected containment ancestor, if any.
    for (graph::VertexId a = vx.containment_parent;
         a != graph::kInvalidVertex; a = g.vertex(a).containment_parent) {
      if (selected.contains(a)) {
        edges.push(edge_node(a, vx.id, "containment", "contains"));
        break;
      }
    }
  }
  return document(std::move(nodes), std::move(edges));
}

}  // namespace fluxion::writers
