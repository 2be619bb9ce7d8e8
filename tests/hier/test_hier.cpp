// JGF round-trip + hierarchical instances (paper §5.6).
#include "hier/instance.hpp"

#include <gtest/gtest.h>

#include "grug/recipes.hpp"
#include "writers/jgf.hpp"
#include "writers/jgf_reader.hpp"

namespace fluxion::hier {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

TEST(JgfRoundTrip, WholeGraphSurvives) {
  graph::ResourceGraph g(0, 100000);
  auto recipe = grug::parse(
      "cluster count=1\n  rack count=2\n    node count=2\n"
      "      core count=4\n      memory count=2 size=16\n");
  ASSERT_TRUE(recipe);
  ASSERT_TRUE(grug::build(g, *recipe));
  g.vertex(*g.find_by_path("/cluster0/rack0/node0"))
      .properties["perf_class"] = "3";

  const std::string jgf = writers::graph_to_jgf(g).pretty();
  auto back = writers::read_jgf(jgf, 0, 100000);
  ASSERT_TRUE(back) << back.error().message;
  graph::ResourceGraph& g2 = *back->graph;
  EXPECT_EQ(g2.live_vertex_count(), g.live_vertex_count());
  EXPECT_EQ(g2.vertex(back->root).name, "cluster0");
  // Paths, sizes and properties all round-trip.
  auto n0 = g2.find_by_path("/cluster0/rack0/node0");
  ASSERT_TRUE(n0.has_value());
  EXPECT_EQ(g2.vertex(*n0).properties.at("perf_class"), "3");
  auto mem = g2.find_by_path("/cluster0/rack0/node0/memory0");
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(g2.vertex(*mem).size, 16);
  EXPECT_EQ(g2.vertex(*mem).schedule->total(), 16);
  const auto counts = g2.subtree_counts(back->root);
  EXPECT_EQ(counts.at(*g2.find_type("core")), 16);
  EXPECT_TRUE(g2.validate());
}

TEST(JgfRoundTrip, NonContainmentEdgesSurvive) {
  graph::ResourceGraph g(0, 1000);
  const auto cluster = g.add_vertex("cluster", "cluster", 0, 1);
  const auto rack = g.add_vertex("rack", "rack", 0, 1);
  const auto rabbit = g.add_vertex("rabbit", "rabbit", 0, 1);
  ASSERT_TRUE(g.add_containment(cluster, rack));
  ASSERT_TRUE(g.add_containment(rack, rabbit));
  ASSERT_TRUE(g.add_edge(cluster, rabbit, g.intern_subsystem("storage"),
                         g.contains_rel()));
  auto back = writers::read_jgf(writers::graph_to_jgf(g).dump(), 0, 1000);
  ASSERT_TRUE(back) << back.error().message;
  graph::ResourceGraph& g2 = *back->graph;
  const auto storage = g2.intern_subsystem("storage");
  EXPECT_EQ(g2.children(back->root, storage, g2.contains_rel()).size(), 1u);
}

TEST(JgfRoundTrip, MalformedDocumentsRejected) {
  EXPECT_FALSE(writers::read_jgf("not json", 0, 100));
  EXPECT_FALSE(writers::read_jgf("{}", 0, 100));
  EXPECT_FALSE(writers::read_jgf(R"({"graph":{"nodes":[{"id":"1"}]}})", 0,
                                 100));
  // Edge to an unknown node.
  EXPECT_FALSE(writers::read_jgf(
      R"({"graph":{"nodes":[{"id":"1","metadata":{"type":"node"}}],
          "edges":[{"source":"1","target":"9"}]}})",
      0, 100));
  // Two containment roots.
  EXPECT_FALSE(writers::read_jgf(
      R"({"graph":{"nodes":[{"id":"1","metadata":{"type":"a"}},
                            {"id":"2","metadata":{"type":"b"}}],
          "edges":[]}})",
      0, 100));
}

class InstanceTree : public ::testing::Test {
 protected:
  InstanceTree() {
    auto r = Instance::create_root(grug::recipes::quartz(true, 1, 8, 4));
    EXPECT_TRUE(r);
    root = std::move(*r);
  }
  std::unique_ptr<Instance> root;
  core::Options opts;
};

TEST_F(InstanceTree, SpawnGrantsResources) {
  auto grant = make({slot(4, {xres("node", 1, {res("core", 4)})})}, 86400);
  ASSERT_TRUE(grant);
  auto child = root->spawn_child(*grant, opts);
  ASSERT_TRUE(child) << child.error().message;
  EXPECT_EQ((*child)->depth(), 1u);
  EXPECT_EQ(root->tree_size(), 2u);
  // Child sees 4 nodes x 4 cores.
  auto& cg = (*child)->engine().graph();
  EXPECT_EQ(cg.vertices_of_type(*cg.find_type("node")).size(), 4u);
  const auto counts = cg.subtree_counts((*child)->engine().root());
  EXPECT_EQ(counts.at(*cg.find_type("core")), 16);
}

TEST_F(InstanceTree, ChildSchedulesInsideGrant) {
  auto grant = make({slot(4, {xres("node", 1, {res("core", 4)})})}, 86400);
  ASSERT_TRUE(grant);
  auto child = root->spawn_child(*grant, opts);
  ASSERT_TRUE(child);
  auto tiny = make({res("node", 1, {slot(1, {res("core", 1)})})}, 60);
  ASSERT_TRUE(tiny);
  int placed = 0;
  while ((*child)->engine().match_allocate(*tiny)) ++placed;
  EXPECT_EQ(placed, 16);  // 4 nodes x 4 cores
}

TEST_F(InstanceTree, ParentCapacityShrinksByGrant) {
  auto grant = make({slot(6, {xres("node", 1)})}, 86400);
  ASSERT_TRUE(grant);
  ASSERT_TRUE(root->spawn_child(*grant, opts));
  auto probe = make({slot(3, {xres("node", 1)})}, 60);
  ASSERT_TRUE(probe);
  EXPECT_FALSE(root->engine().match_allocate(*probe));  // only 2 left
  auto small = make({slot(2, {xres("node", 1)})}, 60);
  ASSERT_TRUE(small);
  EXPECT_TRUE(root->engine().match_allocate(*small));
}

TEST_F(InstanceTree, ThreeLevelHierarchy) {
  auto grant = make({slot(6, {xres("node", 1, {res("core", 4)})})}, 86400);
  ASSERT_TRUE(grant);
  auto mid = root->spawn_child(*grant, opts);
  ASSERT_TRUE(mid);
  auto subgrant = make({slot(2, {xres("node", 1, {res("core", 4)})})},
                       43200);
  ASSERT_TRUE(subgrant);
  auto leaf = (*mid)->spawn_child(*subgrant, opts);
  ASSERT_TRUE(leaf) << leaf.error().message;
  EXPECT_EQ((*leaf)->depth(), 2u);
  EXPECT_EQ(root->tree_size(), 3u);
  auto& lg = (*leaf)->engine().graph();
  EXPECT_EQ(lg.vertices_of_type(*lg.find_type("node")).size(), 2u);
}

TEST_F(InstanceTree, ShutdownReleasesGrant) {
  auto grant = make({slot(8, {xres("node", 1)})}, 86400);
  ASSERT_TRUE(grant);
  auto child = root->spawn_child(*grant, opts);
  ASSERT_TRUE(child);
  auto probe = make({slot(1, {xres("node", 1)})}, 60);
  ASSERT_TRUE(probe);
  EXPECT_FALSE(root->engine().match_allocate(*probe));
  ASSERT_TRUE(root->shutdown_child(*child));
  EXPECT_EQ(root->tree_size(), 1u);
  EXPECT_TRUE(root->engine().match_allocate(*probe));
}

TEST_F(InstanceTree, ShutdownIsRecursive) {
  auto grant = make({slot(6, {xres("node", 1, {res("core", 4)})})}, 86400);
  ASSERT_TRUE(grant);
  auto mid = root->spawn_child(*grant, opts);
  ASSERT_TRUE(mid);
  auto subgrant = make({slot(2, {xres("node", 1, {res("core", 4)})})},
                       43200);
  ASSERT_TRUE(subgrant);
  ASSERT_TRUE((*mid)->spawn_child(*subgrant, opts));
  ASSERT_TRUE(root->shutdown_child(*mid));
  EXPECT_EQ(root->tree_size(), 1u);
  // Everything is back.
  auto all = make({slot(8, {xres("node", 1)})}, 60);
  ASSERT_TRUE(all);
  EXPECT_TRUE(root->engine().match_allocate(*all));
}

TEST_F(InstanceTree, ShutdownForeignChildFails) {
  auto grant = make({slot(2, {xres("node", 1)})}, 86400);
  ASSERT_TRUE(grant);
  auto c1 = root->spawn_child(*grant, opts);
  ASSERT_TRUE(c1);
  auto c2 = (*c1)->spawn_child(
      *make({slot(1, {xres("node", 1)})}, 3600), opts);
  ASSERT_TRUE(c2);
  EXPECT_FALSE(root->shutdown_child(*c2));  // grandchild, not child
}

TEST(GrantJgf, QuantityClaimsShrinkPools) {
  // A grant of 8 units from a 16-unit memory pool gives the child a pool
  // of exactly 8.
  graph::ResourceGraph g(0, 100000);
  auto recipe = grug::parse(
      "cluster count=1\n  node count=1\n    core count=4\n"
      "    memory count=1 size=16\n");
  ASSERT_TRUE(recipe);
  auto root = grug::build(g, *recipe);
  ASSERT_TRUE(root);
  policy::LowIdPolicy pol;
  traverser::Traverser trav(g, *root, pol);
  auto js = make({res("node", 1, {slot(1, {res("memory", 8)})})}, 3600);
  ASSERT_TRUE(js);
  auto grant = trav.match(*js, traverser::MatchOp::allocate, 0, 1);
  ASSERT_TRUE(grant);
  auto child = grant_graph(g, *grant, 0, 100000);
  ASSERT_TRUE(child) << child.error().message;
  const auto counts = child->graph->subtree_counts(child->root);
  EXPECT_EQ(counts.at(*child->graph->find_type("memory")), 8);
}

}  // namespace
}  // namespace fluxion::hier
