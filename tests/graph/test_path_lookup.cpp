// find_by_path resolves a path by walking names down the containment
// tree. The contract: on every graph the engine builds, each live
// vertex's own path resolves to that vertex, and a dead vertex's path
// resolves to nothing unless a live vertex shares it. The oracle below
// reads only Vertex::path and Vertex::alive.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "dynamic/dynamic.hpp"
#include "graph/resource_graph.hpp"
#include "grug/grug.hpp"
#include "hier/instance.hpp"
#include "jobspec/jobspec.hpp"
#include "policy/policies.hpp"
#include "snapshot/snapshot.hpp"
#include "traverser/traverser.hpp"
#include "writers/jgf.hpp"
#include "writers/jgf_reader.hpp"

namespace fluxion::graph {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

constexpr Duration kHorizon = 1 << 20;

constexpr const char* kRecipe = R"(
filters node core
filter-at cluster rack
cluster count=1
  rack count=2
    node count=2
      core count=4
)";

void expect_paths_resolve(const ResourceGraph& g) {
  std::set<std::string> live_paths;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).alive) live_paths.insert(g.vertex(v).path);
  }
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const Vertex& vx = g.vertex(v);
    if (vx.alive) {
      EXPECT_EQ(g.find_by_path(vx.path), std::optional<VertexId>(v))
          << vx.path;
    } else if (!live_paths.contains(vx.path)) {
      EXPECT_EQ(g.find_by_path(vx.path), std::nullopt) << vx.path;
    }
  }
}

class PathLookup : public ::testing::Test {
 protected:
  PathLookup() : g(0, kHorizon) {
    auto recipe = grug::parse(kRecipe);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
  }

  ResourceGraph g;
  VertexId root = kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

TEST_F(PathLookup, GrugBuild) {
  expect_paths_resolve(g);
  EXPECT_EQ(g.find_by_path("/cluster0"), root);
  const auto core = g.find_by_path("/cluster0/rack1/node3/core15");
  ASSERT_TRUE(core);
  EXPECT_EQ(g.vertex(*core).path, "/cluster0/rack1/node3/core15");
}

TEST_F(PathLookup, MalformedPathsResolveToNothing) {
  for (const char* path :
       {"", "/", "cluster0", "cluster0/rack0", "/cluster0/", "//cluster0",
        "/cluster0//rack0", "/rack0", "/cluster0/rack0/node2",
        "/cluster0/rack0/node0/core0/x"}) {
    EXPECT_EQ(g.find_by_path(path), std::nullopt) << path;
  }
}

TEST_F(PathLookup, JgfRoundTrip) {
  auto back = writers::read_jgf(writers::graph_to_jgf(g).dump(), 0, kHorizon);
  ASSERT_TRUE(back) << back.error().message;
  expect_paths_resolve(*back->graph);
  EXPECT_EQ(back->graph->find_by_path("/cluster0"), back->root);
}

TEST_F(PathLookup, GrantGraphChild) {
  auto js = make({slot(3, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  auto m = trav->match(*js, traverser::MatchOp::allocate, 0, 1);
  ASSERT_TRUE(m) << m.error().message;
  auto child = hier::grant_graph(g, *m, 0, kHorizon);
  ASSERT_TRUE(child) << child.error().message;
  expect_paths_resolve(*child->graph);
  // The child re-roots the granted nodes under its own cluster0.
  EXPECT_TRUE(child->graph->find_by_path("/cluster0/node2/core8"));
}

TEST_F(PathLookup, GrowShrinkAndRolledBackGrow) {
  dynamic::DynamicResources dyn(g, *trav);
  const std::string rack = "filters node core\nfilter-at rack\n"
                           "rack count=1\n  node count=1\n    core count=2\n";
  auto grown = dyn.grow(root, rack);
  ASSERT_TRUE(grown) << grown.error().message;
  EXPECT_EQ(g.find_by_path("/cluster0/rack2"), *grown);
  EXPECT_TRUE(g.find_by_path("/cluster0/rack2/node4/core17"));
  expect_paths_resolve(g);

  const auto rack0 = g.find_by_path("/cluster0/rack0");
  ASSERT_TRUE(rack0);
  ASSERT_TRUE(dyn.shrink(*rack0));
  EXPECT_EQ(g.find_by_path("/cluster0/rack0"), std::nullopt);
  EXPECT_EQ(g.find_by_path("/cluster0/rack0/node0"), std::nullopt);
  expect_paths_resolve(g);

  // A grow rolled back after its fragment was built leaves dead "/rack3"
  // vertices behind, which must not resolve.
  dyn.fail_next("grow:attach");
  ASSERT_FALSE(dyn.grow(root, rack));
  EXPECT_EQ(g.find_by_path("/rack3"), std::nullopt);
  expect_paths_resolve(g);
  ASSERT_TRUE(dyn.grow(root, rack));
  EXPECT_TRUE(g.find_by_path("/cluster0/rack3/node5"));
  expect_paths_resolve(g);
  EXPECT_TRUE(g.validate());
}

TEST_F(PathLookup, SnapshotLoad) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, traverser::MatchOp::allocate, 0, 1));
  const auto rack1 = g.find_by_path("/cluster0/rack1");
  ASSERT_TRUE(rack1);
  ASSERT_TRUE(g.detach_subtree(*rack1));
  auto eng = snapshot::EngineSnapshot::load(
      snapshot::EngineSnapshot::save(g, *trav, nullptr));
  ASSERT_TRUE(eng) << eng.error().message;
  expect_paths_resolve(*(*eng)->graph);
  EXPECT_EQ((*eng)->graph->find_by_path("/cluster0/rack1"), std::nullopt);
}

// A non-root vertex named like the root once took over the root's path
// in the old path index, so "/cluster0" resolved to nothing and
// validate() failed.
TEST(PathLookupRegression, ChildNamedLikeTheRoot) {
  const std::string jgf =
      R"({"graph":{"nodes":[)"
      R"({"id":"0","metadata":{"type":"cluster","name":"cluster0"}},)"
      R"({"id":"1","metadata":{"type":"node","name":"cluster0"}},)"
      R"({"id":"2","metadata":{"type":"core","name":"core0"}}],)"
      R"("edges":[{"source":"0","target":"1"},{"source":"1","target":"2"}]}})";
  auto r = writers::read_jgf(jgf, 0, kHorizon);
  ASSERT_TRUE(r) << r.error().message;
  const ResourceGraph& g = *r->graph;
  EXPECT_EQ(g.find_by_path("/cluster0"), r->root);
  EXPECT_EQ(g.find_by_path("/cluster0/cluster0"), VertexId{1});
  EXPECT_EQ(g.find_by_path("/cluster0/cluster0/core0"), VertexId{2});
  EXPECT_TRUE(g.validate());
  expect_paths_resolve(g);
}

// Two live siblings may share a name; detaching either once dropped the
// shared path from the old index, so the survivor no longer resolved.
TEST(PathLookupRegression, SameNamedSiblingSurvivesDetach) {
  for (const int detached : {0, 1}) {
    ResourceGraph g(0, kHorizon);
    const VertexId cluster = g.add_vertex("cluster", "cluster", 0, 1);
    VertexId twins[2];
    for (VertexId& t : twins) {
      t = g.add_vertex_named("node", "node", "node7", 1);
      ASSERT_TRUE(g.add_containment(cluster, t));
    }
    // Both live: the first in edge order wins.
    EXPECT_EQ(g.find_by_path("/cluster0/node7"), twins[0]);
    ASSERT_TRUE(g.detach_subtree(twins[detached]));
    EXPECT_EQ(g.find_by_path("/cluster0/node7"), twins[1 - detached])
        << "detached twin " << detached;
    EXPECT_TRUE(g.validate());
  }
}

}  // namespace
}  // namespace fluxion::graph
