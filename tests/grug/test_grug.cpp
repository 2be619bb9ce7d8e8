#include "grug/grug.hpp"

#include <gtest/gtest.h>

#include "grug/recipes.hpp"

namespace fluxion::grug {
namespace {

using util::Errc;

constexpr const char* kSmallRecipe = R"(# toy system
filters core memory
filter-at cluster rack
cluster count=1
  rack count=2
    node count=3
      core count=4
      memory count=2 size=16
)";

TEST(GrugParse, ParsesLevelsAndOptions) {
  auto r = parse(kSmallRecipe);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->root.type, "cluster");
  ASSERT_EQ(r->root.children.size(), 1u);
  const LevelSpec& rack = r->root.children[0];
  EXPECT_EQ(rack.type, "rack");
  EXPECT_EQ(rack.count, 2);
  const LevelSpec& node = rack.children[0];
  EXPECT_EQ(node.count, 3);
  ASSERT_EQ(node.children.size(), 2u);
  EXPECT_EQ(node.children[1].type, "memory");
  EXPECT_EQ(node.children[1].size, 16);
  EXPECT_EQ(r->filter_types, (std::vector<std::string>{"core", "memory"}));
  EXPECT_EQ(r->filter_at, (std::vector<std::string>{"cluster", "rack"}));
}

TEST(GrugParse, VertexCount) {
  auto r = parse(kSmallRecipe);
  ASSERT_TRUE(r);
  // 1 cluster + 2 racks + 6 nodes + 6*(4 cores + 2 mem) = 45
  EXPECT_EQ(vertex_count(*r), 1 + 2 + 6 + 6 * 6);
}

TEST(GrugParse, DefaultsCountAndSizeToOne) {
  auto r = parse("cluster\n  node count=2\n");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->root.count, 1);
  EXPECT_EQ(r->root.size, 1);
}

TEST(GrugParse, RejectsEmpty) {
  EXPECT_EQ(parse("").error().code, Errc::parse_error);
  EXPECT_EQ(parse("# just a comment\n").error().code, Errc::parse_error);
}

TEST(GrugParse, RejectsMultiCountRoot) {
  EXPECT_FALSE(parse("cluster count=2\n"));
}

TEST(GrugParse, RejectsBadValues) {
  EXPECT_FALSE(parse("cluster\n  node count=0\n"));
  EXPECT_FALSE(parse("cluster\n  node count=-3\n"));
  EXPECT_FALSE(parse("cluster\n  node count=abc\n"));
  EXPECT_FALSE(parse("cluster\n  node weird=1\n"));
  EXPECT_FALSE(parse("cluster\n  node count\n"));
  EXPECT_FALSE(parse("clu ster\n"));
}

TEST(GrugParse, RejectsInconsistentIndent) {
  // gpu is a sibling of core but sits at a different indent.
  EXPECT_FALSE(parse("cluster\n  node\n    core\n   gpu\n"));
  EXPECT_FALSE(parse("cluster\n\tnode\n"));
}

TEST(GrugParse, RejectsTrailingRootSibling) {
  EXPECT_FALSE(parse("cluster\nother\n"));
}

TEST(GrugBuild, BuildsSmallSystem) {
  auto r = parse(kSmallRecipe);
  ASSERT_TRUE(r);
  graph::ResourceGraph g(0, 1000);
  auto root = build(g, *r);
  ASSERT_TRUE(root);
  EXPECT_EQ(g.vertex_count(), static_cast<std::size_t>(vertex_count(*r)));
  EXPECT_EQ(g.vertex(*root).type, *g.find_type("cluster"));
  // Filters installed at cluster and both racks.
  EXPECT_NE(g.vertex(*root).filter, nullptr);
  const auto racks = g.vertices_of_type(*g.find_type("rack"));
  ASSERT_EQ(racks.size(), 2u);
  for (auto rk : racks) {
    ASSERT_NE(g.vertex(rk).filter, nullptr);
    const auto* f = g.vertex(rk).filter.get();
    EXPECT_EQ(f->planner_at(*f->index_of("core")).total(), 12);
    EXPECT_EQ(f->planner_at(*f->index_of("memory")).total(), 3 * 2 * 16);
  }
  EXPECT_TRUE(g.validate());
}

TEST(GrugBuild, GlobalInstanceNaming) {
  auto r = parse("cluster\n  rack count=2\n    node count=2\n");
  ASSERT_TRUE(r);
  graph::ResourceGraph g(0, 1000);
  ASSERT_TRUE(build(g, *r));
  // Nodes are numbered globally: node0..node3 across racks.
  EXPECT_TRUE(g.find_by_path("/cluster0/rack0/node0").has_value());
  EXPECT_TRUE(g.find_by_path("/cluster0/rack0/node1").has_value());
  EXPECT_TRUE(g.find_by_path("/cluster0/rack1/node2").has_value());
  EXPECT_TRUE(g.find_by_path("/cluster0/rack1/node3").has_value());
}

TEST(GrugBuild, NoFiltersWhenNotRequested) {
  auto r = parse("cluster\n  node count=2\n");
  ASSERT_TRUE(r);
  graph::ResourceGraph g(0, 1000);
  auto root = build(g, *r);
  ASSERT_TRUE(root);
  EXPECT_EQ(g.vertex(*root).filter, nullptr);
}

TEST(PaperRecipes, HighLodShape) {
  const Recipe r = recipes::high_lod();
  // 1 + 56 + 1008 + 2016 sockets + 2016*(20+2+8+8)
  EXPECT_EQ(vertex_count(r), 1 + 56 + 1008 + 2016 + 2016 * 38);
  graph::ResourceGraph g(0, 1000);
  auto root = build(g, r);
  ASSERT_TRUE(root);
  const auto counts = g.subtree_counts(*root);
  const auto units = [&](const char* type) {
    return graph::count_of(counts, *g.find_type(type));
  };
  EXPECT_EQ(units("node"), 1008);
  EXPECT_EQ(units("core"), 1008 * 40);
  EXPECT_EQ(units("gpu"), 1008 * 4);
  EXPECT_EQ(units("memory"), 1008 * 2 * 8 * 16);  // GB
  EXPECT_EQ(units("bb"), 1008 * 2 * 8 * 100);     // GB
}

TEST(PaperRecipes, LodVariantsKeepCapacityConstant) {
  // Coarsening must not change schedulable capacity, only vertex count.
  graph::ResourceGraph gh(0, 1000), gm(0, 1000), gl(0, 1000), gl2(0, 1000);
  auto rh = build(gh, recipes::high_lod());
  auto rm = build(gm, recipes::med_lod());
  auto rl = build(gl, recipes::low_lod());
  auto rl2 = build(gl2, recipes::low2_lod());
  ASSERT_TRUE(rh);
  ASSERT_TRUE(rm);
  ASSERT_TRUE(rl);
  ASSERT_TRUE(rl2);
  for (auto* pair : {&gh, &gm, &gl, &gl2}) {
    const auto counts = pair->subtree_counts(0);
    EXPECT_EQ(graph::count_of(counts, *pair->find_type("core")), 1008 * 40);
    EXPECT_EQ(graph::count_of(counts, *pair->find_type("memory")), 1008 * 256);
    EXPECT_EQ(graph::count_of(counts, *pair->find_type("bb")), 1008 * 1600);
  }
  // And vertex counts shrink monotonically High > Med > Low2 > Low.
  EXPECT_GT(gh.vertex_count(), gm.vertex_count());
  EXPECT_GT(gm.vertex_count(), gl2.vertex_count());
  EXPECT_GT(gl2.vertex_count(), gl.vertex_count());
}

TEST(PaperRecipes, PruningInstallsFilters) {
  graph::ResourceGraph g(0, 1000);
  auto root = build(g, recipes::med_lod(/*prune=*/true, 4, 4));
  ASSERT_TRUE(root);
  ASSERT_NE(g.vertex(*root).filter, nullptr);
  const auto* f = g.vertex(*root).filter.get();
  EXPECT_EQ(f->planner_at(*f->index_of("core")).total(), 16 * 40);
  for (auto rk : g.vertices_of_type(*g.find_type("rack"))) {
    EXPECT_NE(g.vertex(rk).filter, nullptr);
  }
}

TEST(PaperRecipes, QuartzShape) {
  graph::ResourceGraph g(0, 1000);
  auto root = build(g, recipes::quartz());
  ASSERT_TRUE(root);
  const auto counts = g.subtree_counts(*root);
  EXPECT_EQ(graph::count_of(counts, *g.find_type("node")),
            39 * 62);  // 2418 nodes
  EXPECT_EQ(graph::count_of(counts, *g.find_type("core")), 2418 * 36);
}

}  // namespace
}  // namespace fluxion::grug
