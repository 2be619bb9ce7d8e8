#include "writers/pretty.hpp"

#include <algorithm>
#include <map>

#include "util/strings.hpp"

namespace fluxion::writers {

std::string match_to_pretty(const graph::ResourceGraph& g,
                            const traverser::MatchResult& result) {
  // Sort by containment path; the path structure yields the tree. Shared
  // ancestor components are printed once at their depth.
  struct Row {
    std::string path;
    std::int64_t units;
    std::int64_t size;
    bool exclusive;
  };
  std::vector<Row> rows;
  rows.reserve(result.resources.size());
  for (const auto& ru : result.resources) {
    const graph::Vertex& v = g.vertex(ru.vertex);
    rows.push_back({v.path, ru.units, v.size, ru.exclusive});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.path < b.path; });

  std::string out = "job " + std::to_string(result.job) + " @ [" +
                    std::to_string(result.at) + ", " +
                    std::to_string(result.at + result.duration) + ")" +
                    (result.reserved ? " reserved\n" : "\n");
  std::vector<std::string> printed;  // component stack already emitted
  for (const Row& row : rows) {
    const auto parts = util::split(
        std::string_view(row.path).substr(1), '/');  // drop leading '/'
    // Find common prefix depth with what is already printed.
    std::size_t common = 0;
    while (common < printed.size() && common + 1 < parts.size() &&
           printed[common] == parts[common]) {
      ++common;
    }
    printed.resize(common);
    // Emit intermediate components.
    for (std::size_t d = common; d + 1 < parts.size(); ++d) {
      out += std::string((d + 1) * 2, ' ') + std::string(parts[d]) + "\n";
      printed.emplace_back(parts[d]);
    }
    // Emit the claimed vertex itself.
    out += std::string(parts.size() * 2, ' ') +
           std::string(parts.back());
    if (row.units != row.size || row.size != 1) {
      out.append("[").append(std::to_string(row.units)).append("]");
    }
    if (row.exclusive) out += "*";
    out += "\n";
  }
  return out;
}

namespace {

void render_subtree(const graph::ResourceGraph& g, graph::VertexId v,
                    std::size_t depth, std::string& out) {
  const graph::Vertex& vx = g.vertex(v);
  out += std::string(depth * 2, ' ') + vx.name;
  if (vx.size != 1) {
    out.append("[").append(std::to_string(vx.size)).append("]");
  }
  if (vx.status != graph::ResourceStatus::up) {
    out += std::string(" (") + graph::status_name(vx.status) + ")";
  }
  out += "\n";
  for (graph::VertexId c : g.containment_children(v)) {
    render_subtree(g, c, depth + 1, out);
  }
}

}  // namespace

std::string graph_to_pretty(const graph::ResourceGraph& g,
                            graph::VertexId root) {
  std::string out;
  if (root < g.vertex_count() && g.vertex(root).alive) {
    render_subtree(g, root, 0, out);
  }
  return out;
}

}  // namespace fluxion::writers
