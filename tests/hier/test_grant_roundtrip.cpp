// grant_graph property: a grant copied out of the parent graph into a
// child graph must preserve the resource totals per type, the parent-side
// vertex names, types, properties and every vertex's status, in the
// parent's order — the contract the federation's grant -> child-instance
// chain (paper §5.6) rests on. The field-wise oracle below recomputes the
// expected child from the parent and the grant alone.
#include <algorithm>
#include <map>
#include <string_view>
#include <string>

#include <gtest/gtest.h>

#include "grug/recipes.hpp"
#include "hier/instance.hpp"
#include "util/rng.hpp"

namespace fluxion::hier {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

/// (vertex count, unit sum) per resource type, skipping the synthetic
/// cluster root so parent-side claims and child graphs are comparable.
std::map<std::string, std::pair<std::size_t, std::int64_t>> type_totals(
    const graph::ResourceGraph& g, bool skip_cluster) {
  std::map<std::string, std::pair<std::size_t, std::int64_t>> out;
  for (const char* type : {"cluster", "rack", "node", "core"}) {
    if (skip_cluster && std::string_view(type) == "cluster") continue;
    const auto t = g.find_type(type);
    if (!t) continue;
    auto& [n, units] = out[type];
    for (const auto v : g.vertices_of_type(*t)) {
      ++n;
      units += g.vertex(v).size;
    }
  }
  return out;
}

/// Field-wise oracle over a child built from `grant` in `parent`: every
/// child vertex but the root matches the same-named parent vertex, sized
/// to the granted units (a vertex the grant does not list came whole with
/// an ancestor); vertices follow parent uniq_id order; each vertex lists
/// its containment children in the parent's order; and the root filter
/// advertises the granted node and core counts.
void expect_faithful_copy(const graph::ResourceGraph& parent,
                          const traverser::MatchResult& grant,
                          const graph::ResourceGraph& child,
                          graph::VertexId root) {
  std::map<std::string, graph::VertexId> by_name;
  for (graph::VertexId v = 0; v < parent.vertex_count(); ++v) {
    if (parent.vertex(v).alive) by_name[parent.vertex(v).name] = v;
  }
  std::map<graph::VertexId, std::int64_t> granted;
  for (const auto& ru : grant.resources) granted[ru.vertex] = ru.units;

  EXPECT_EQ(root, 0u);
  EXPECT_EQ(child.vertex(root).name, "cluster0");
  EXPECT_EQ(child.type_name(child.vertex(root).type), "cluster");
  std::map<graph::VertexId, graph::VertexId> origin;  // child -> parent
  std::int64_t last_uniq = -1;
  std::int64_t nodes = 0, cores = 0;
  for (graph::VertexId v = 0; v < child.vertex_count(); ++v) {
    if (v == root) continue;
    const graph::Vertex& cv = child.vertex(v);
    const auto it = by_name.find(cv.name);
    ASSERT_NE(it, by_name.end()) << cv.name;
    const graph::Vertex& pv = parent.vertex(it->second);
    origin[v] = it->second;
    const std::string& type = parent.type_name(pv.type);
    EXPECT_EQ(child.type_name(cv.type), type) << cv.name;
    EXPECT_EQ(cv.basename, pv.basename) << cv.name;
    EXPECT_EQ(cv.status, pv.status) << cv.name;
    EXPECT_EQ(cv.properties, pv.properties) << cv.name;
    const auto g = granted.find(it->second);
    const std::int64_t units = g == granted.end() ? pv.size : g->second;
    EXPECT_EQ(cv.size, units) << cv.name;
    EXPECT_GT(pv.uniq_id, last_uniq) << cv.name;
    last_uniq = pv.uniq_id;
    if (type == "node") nodes += units;
    if (type == "core") cores += units;
  }
  for (const auto& [v, from] : origin) {
    const auto kids = child.containment_children(v);
    const auto parent_kids = parent.containment_children(from);
    auto next = parent_kids.begin();
    for (const graph::VertexId k : kids) {
      next = std::find(next, parent_kids.end(), origin.at(k));
      ASSERT_NE(next, parent_kids.end()) << child.vertex(k).name;
      ++next;
    }
  }
  const planner::PlannerMulti* filter = child.vertex(root).filter.get();
  ASSERT_NE(filter, nullptr);
  for (const auto& [type, want] :
       {std::pair{"node", nodes}, std::pair{"core", cores}}) {
    const auto idx = filter->index_of_id(*child.find_type(type));
    ASSERT_TRUE(idx) << type;
    EXPECT_EQ(filter->planner_at(*idx).total(), want) << type;
  }
}

TEST(GrantRoundTrip, PreservesTotalsPathsAndStatus) {
  util::Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    auto root_r =
        Instance::create_root(grug::recipes::quartz(true, 1, 16, 4));
    ASSERT_TRUE(root_r);
    Instance& root = **root_r;
    auto& g = root.engine().graph();

    const std::int64_t ask = rng.uniform(2, 8);
    auto grant =
        make({slot(ask, {xres("node", 1, {res("core", 4)})})}, 1 << 20);
    ASSERT_TRUE(grant);
    auto r = root.engine().match_allocate(*grant);
    ASSERT_TRUE(r) << r.error().message;

    // Flip some granted capacity after allocation: the copy must carry
    // the live status, not assume everything is up. Properties ride too.
    const auto node_type = g.find_type("node");
    ASSERT_TRUE(node_type);
    for (const auto v : g.vertices_of_type(*node_type)) {
      g.vertex(v).properties["perf_class"] = std::to_string(v % 3);
      if (rng.chance(0.25)) {
        ASSERT_TRUE(g.set_status(v, graph::ResourceStatus::drained));
      }
    }

    auto copy = grant_graph(g, *r, 0, std::int64_t{1} << 31);
    ASSERT_TRUE(copy) << copy.error().message;
    auto child = core::ResourceQuery::create_from_graph(
        std::move(copy->graph), copy->root, {}, {"node", "core"},
        {"cluster"});
    ASSERT_TRUE(child) << child.error().message;
    const auto& cg = (*child)->graph();
    expect_faithful_copy(g, *r, cg, (*child)->root());
    EXPECT_TRUE(cg.validate());

    // Totals: exactly the granted nodes and their full core subtrees.
    const auto totals = type_totals(cg, /*skip_cluster=*/true);
    ASSERT_TRUE(totals.count("node"));
    ASSERT_TRUE(totals.count("core"));
    EXPECT_EQ(totals.at("node").first, static_cast<std::size_t>(ask));
    EXPECT_EQ(totals.at("node").second, ask);
    EXPECT_EQ(totals.at("core").second, ask * 4);

    // Identity: the grant re-roots the child under a synthetic cluster
    // ("/cluster0/<node>"), but every node keeps its parent-side *name*,
    // and its live status rides along per vertex — not just in
    // aggregate.
    std::map<std::string, graph::ResourceStatus> parent_status;
    for (const auto v : g.vertices_of_type(*node_type)) {
      parent_status[g.vertex(v).name] = g.vertex(v).status;
    }
    std::size_t child_drained = 0;
    for (const auto v : cg.vertices_of_type(*cg.find_type("node"))) {
      const auto& vert = cg.vertex(v);
      EXPECT_EQ(vert.path, "/cluster0/" + vert.name);
      const auto it = parent_status.find(vert.name);
      ASSERT_NE(it, parent_status.end()) << vert.name;
      EXPECT_EQ(vert.status, it->second) << vert.name;
      if (vert.status == graph::ResourceStatus::drained) ++child_drained;
    }
    // A drained node drains its subtree: node + 4 cores = 5 vertices.
    EXPECT_EQ(cg.status_count(graph::ResourceStatus::drained),
              child_drained * 5);

    // Second hop: copying a grant inside the child again still preserves
    // totals and every field (the levels=2 chain).
    auto subgrant =
        make({slot(1, {xres("node", 1, {res("core", 4)})})}, 1 << 20);
    ASSERT_TRUE(subgrant);
    auto sub = (*child)->match_allocate(*subgrant);
    if (sub) {
      auto sub_copy = grant_graph(cg, *sub, 0, std::int64_t{1} << 31);
      ASSERT_TRUE(sub_copy) << sub_copy.error().message;
      auto grandchild = core::ResourceQuery::create_from_graph(
          std::move(sub_copy->graph), sub_copy->root, {}, {"node", "core"},
          {"cluster"});
      ASSERT_TRUE(grandchild) << grandchild.error().message;
      expect_faithful_copy(cg, *sub, (*grandchild)->graph(),
                           (*grandchild)->root());
      const auto sub_totals =
          type_totals((*grandchild)->graph(), /*skip_cluster=*/true);
      EXPECT_EQ(sub_totals.at("node").second, 1);
      EXPECT_EQ(sub_totals.at("core").second, 4);
    }
  }
}

}  // namespace
}  // namespace fluxion::hier
