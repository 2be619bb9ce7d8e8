#include "graph/resource_graph.hpp"

#include <gtest/gtest.h>

namespace fluxion::graph {
namespace {

using util::Errc;

/// Small fixture: cluster -> 2 racks -> 2 nodes each -> 4 cores + 1 gpu.
class SmallCluster : public ::testing::Test {
 protected:
  SmallCluster() : g(0, 1000) {
    cluster = g.add_vertex("cluster", "cluster", 0, 1);
    core_t = g.intern_type("core");
    gpu_t = g.intern_type("gpu");
    node_t = g.intern_type("node");
    for (int r = 0; r < 2; ++r) {
      const VertexId rack = g.add_vertex("rack", "rack", r, 1);
      EXPECT_TRUE(g.add_containment(cluster, rack));
      racks.push_back(rack);
      for (int n = 0; n < 2; ++n) {
        const VertexId node = g.add_vertex("node", "node", r * 2 + n, 1);
        EXPECT_TRUE(g.add_containment(rack, node));
        nodes.push_back(node);
        for (int c = 0; c < 4; ++c) {
          const VertexId core = g.add_vertex("core", "core", c, 1);
          EXPECT_TRUE(g.add_containment(node, core));
        }
        const VertexId gpu = g.add_vertex("gpu", "gpu", 0, 1);
        EXPECT_TRUE(g.add_containment(node, gpu));
      }
    }
  }
  ResourceGraph g;
  VertexId cluster;
  util::InternId core_t, gpu_t, node_t;
  std::vector<VertexId> racks, nodes;
};

TEST_F(SmallCluster, CountsAndPaths) {
  EXPECT_EQ(g.vertex_count(), 1u + 2u + 4u + 16u + 4u);
  EXPECT_EQ(g.live_vertex_count(), g.vertex_count());
  EXPECT_EQ(g.vertex(nodes[0]).path, "/cluster0/rack0/node0");
  EXPECT_EQ(g.find_by_path("/cluster0/rack1/node3"), nodes[3]);
  EXPECT_EQ(g.find_by_path("/cluster0/rack9"), std::nullopt);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, ContainmentChildren) {
  EXPECT_EQ(g.containment_children(cluster).size(), 2u);
  EXPECT_EQ(g.containment_children(racks[0]).size(), 2u);
  EXPECT_EQ(g.containment_children(nodes[0]).size(), 5u);  // 4 cores + gpu
}

TEST_F(SmallCluster, ReverseInEdgesExist) {
  const auto parents =
      g.children(nodes[0], g.containment(), g.in_rel());
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], racks[0]);
}

TEST_F(SmallCluster, VerticesOfType) {
  EXPECT_EQ(g.vertices_of_type(node_t).size(), 4u);
  EXPECT_EQ(g.vertices_of_type(core_t).size(), 16u);
  EXPECT_EQ(g.vertices_of_type(g.intern_type("pfs")).size(), 0u);
}

TEST_F(SmallCluster, SubtreeCounts) {
  const auto counts = g.subtree_counts(racks[0]);
  EXPECT_EQ(counts.at(core_t), 8);
  EXPECT_EQ(counts.at(gpu_t), 2);
  EXPECT_EQ(counts.at(node_t), 2);
  const auto all = g.subtree_counts(cluster);
  EXPECT_EQ(all.at(core_t), 16);
}

TEST_F(SmallCluster, InSubtreeFollowsContainmentParents) {
  const VertexId core = g.containment_children(nodes[0]).front();
  EXPECT_TRUE(g.in_subtree(core, core));
  EXPECT_TRUE(g.in_subtree(core, nodes[0]));
  EXPECT_TRUE(g.in_subtree(core, cluster));
  EXPECT_FALSE(g.in_subtree(nodes[0], core));
  EXPECT_FALSE(g.in_subtree(core, nodes[1]));
  EXPECT_FALSE(g.in_subtree(nodes[2], racks[0]));
}

TEST_F(SmallCluster, PerVertexPlannersInitialized) {
  const Vertex& n = g.vertex(nodes[0]);
  ASSERT_NE(n.schedule, nullptr);
  EXPECT_EQ(n.schedule->total(), 1);
  EXPECT_EQ(*n.schedule->avail_at(0), 1);
  EXPECT_EQ(n.x_checker->total(), kSharedUseMax);
}

TEST_F(SmallCluster, InstallFilterTracksSubtreeTotals) {
  ASSERT_TRUE(g.install_filter(racks[0], {core_t, gpu_t}));
  const auto* f = g.vertex(racks[0]).filter.get();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->planner_at(*f->index_of("core")).total(), 8);
  EXPECT_EQ(f->planner_at(*f->index_of("gpu")).total(), 2);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, InstallFilterTwiceFails) {
  ASSERT_TRUE(g.install_filter(racks[0], {core_t}));
  EXPECT_EQ(g.install_filter(racks[0], {core_t}).error().code, Errc::exists);
}

TEST_F(SmallCluster, FilterForAbsentTypeHasZeroTotal) {
  const auto pfs = g.intern_type("pfs");
  ASSERT_TRUE(g.install_filter(racks[0], {pfs}));
  const auto* f = g.vertex(racks[0]).filter.get();
  EXPECT_EQ(f->planner_at(*f->index_of("pfs")).total(), 0);
}

TEST_F(SmallCluster, DetachSubtreeRemovesCapacity) {
  ASSERT_TRUE(g.install_filter(cluster, {core_t}));
  ASSERT_TRUE(g.detach_subtree(racks[1]));
  // rack + 2 nodes + 8 cores + 2 gpus = 13 vertices detached
  EXPECT_EQ(g.live_vertex_count(), g.vertex_count() - 13);
  EXPECT_EQ(g.containment_children(cluster).size(), 1u);
  EXPECT_EQ(g.find_by_path("/cluster0/rack1"), std::nullopt);
  const auto* f = g.vertex(cluster).filter.get();
  EXPECT_EQ(f->planner_at(*f->index_of("core")).total(), 8);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, DetachBusySubtreeFails) {
  ASSERT_TRUE(g.vertex(nodes[2]).schedule->add_span(0, 10, 1));
  EXPECT_EQ(g.detach_subtree(racks[1]).error().code, Errc::resource_busy);
  EXPECT_EQ(g.live_vertex_count(), g.vertex_count());
}

TEST_F(SmallCluster, AttachSubtreeGrowsCapacity) {
  ASSERT_TRUE(g.install_filter(cluster, {core_t}));
  // Build a new rack detached, then attach it.
  const VertexId rack = g.add_vertex("rack", "rack", 2, 1);
  const VertexId node = g.add_vertex("node", "node", 4, 1);
  ASSERT_TRUE(g.add_containment(rack, node));
  for (int c = 0; c < 4; ++c) {
    const VertexId core = g.add_vertex("core", "core", c, 1);
    ASSERT_TRUE(g.add_containment(node, core));
  }
  ASSERT_TRUE(g.attach_subtree(cluster, rack));
  EXPECT_EQ(g.vertex(node).path, "/cluster0/rack2/node4");
  const auto* f = g.vertex(cluster).filter.get();
  EXPECT_EQ(f->planner_at(*f->index_of("core")).total(), 20);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, AttachAlreadyPlacedFails) {
  EXPECT_EQ(g.attach_subtree(cluster, racks[0]).error().code, Errc::exists);
}

/// Everything a refused add_containment must leave untouched.
struct ContainmentState {
  std::size_t edges;
  std::vector<VertexId> parents;
  std::vector<std::string> paths;
  std::vector<std::int32_t> non_up_below;
  bool operator==(const ContainmentState&) const = default;
};

ContainmentState containment_state(const ResourceGraph& g) {
  ContainmentState st{g.edge_count(), {}, {}, {}};
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    st.parents.push_back(g.vertex(v).containment_parent);
    st.paths.push_back(g.vertex(v).path);
    st.non_up_below.push_back(g.vertex(v).non_up_below);
  }
  return st;
}

TEST_F(SmallCluster, SelfContainmentRefused) {
  // A detached vertex has no parent, so only the cycle check can refuse.
  const VertexId lone = g.add_vertex("rack", "rack", 9, 1);
  const auto before = containment_state(g);
  EXPECT_EQ(g.add_containment(lone, lone).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(containment_state(g), before);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, ChildToParentContainmentRefused) {
  // The root's parent slot is free, so only the cycle check stops it
  // becoming a child of its own child.
  const auto before = containment_state(g);
  EXPECT_EQ(g.add_containment(racks[0], cluster).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(containment_state(g), before);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, GrandchildToRootContainmentRefused) {
  const auto before = containment_state(g);
  EXPECT_EQ(g.add_containment(nodes[3], cluster).error().code,
            Errc::invalid_argument);
  const VertexId core = g.containment_children(nodes[3])[0];
  EXPECT_EQ(g.add_containment(core, cluster).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(containment_state(g), before);
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, AttachSubtreeOntoItselfRefused) {
  ASSERT_TRUE(g.install_filter(cluster, {core_t}));
  const VertexId rack = g.add_vertex("rack", "rack", 2, 1);
  const VertexId node = g.add_vertex("node", "node", 4, 1);
  ASSERT_TRUE(g.add_containment(rack, node));
  const VertexId core = g.add_vertex("core", "core", 0, 1);
  ASSERT_TRUE(g.add_containment(node, core));
  const auto before = containment_state(g);
  for (VertexId inside : {rack, node, core}) {
    EXPECT_EQ(g.attach_subtree(inside, rack).error().code,
              Errc::invalid_argument)
        << inside;
    EXPECT_EQ(containment_state(g), before) << inside;
  }
  const auto* f = g.vertex(cluster).filter.get();
  EXPECT_EQ(f->planner_at(*f->index_of("core")).total(), 16);
  EXPECT_TRUE(g.validate());
  // The subtree is still attachable where it belongs.
  ASSERT_TRUE(g.attach_subtree(cluster, rack));
  EXPECT_EQ(g.vertex(core).path, "/cluster0/rack2/node4/core0");
  EXPECT_TRUE(g.validate());
}

TEST_F(SmallCluster, SubsystemFilter) {
  EXPECT_TRUE(g.subsystem_visible(g.containment()));
  const auto power = g.intern_subsystem("power");
  EXPECT_FALSE(g.subsystem_visible(power));
  g.set_subsystem_filter({power});
  EXPECT_TRUE(g.subsystem_visible(power));
  EXPECT_FALSE(g.subsystem_visible(g.containment()));
  g.set_subsystem_filter({});
  EXPECT_TRUE(g.subsystem_visible(g.containment()));
}

TEST_F(SmallCluster, MultiSubsystemEdges) {
  // Rabbit-style storage: one vertex with edges from both rack and
  // cluster in a "storage" subsystem (paper §5.1).
  const auto storage = g.intern_subsystem("storage");
  const auto conduit = g.intern_relation("conduit-of");
  const VertexId rabbit = g.add_vertex("rabbit", "rabbit", 0, 1);
  ASSERT_TRUE(g.add_containment(racks[0], rabbit));
  ASSERT_TRUE(g.add_edge(cluster, rabbit, storage, conduit));
  EXPECT_EQ(g.children(cluster, storage, conduit).size(), 1u);
  EXPECT_EQ(g.children(cluster, g.containment(), g.contains_rel()).size(),
            2u);
}

TEST_F(SmallCluster, EdgeAccounting) {
  // Each containment link is 2 directed edges (contains + in).
  EXPECT_EQ(g.edge_count(), 2 * (g.vertex_count() - 1));
  const auto power = g.intern_subsystem("power");
  const auto feeds = g.intern_relation("feeds");
  ASSERT_TRUE(g.add_edge(cluster, racks[0], power, feeds));
  EXPECT_EQ(g.edge_count(), 2 * (g.vertex_count() - 1) + 1);
  // Unknown relation/subsystem queries return nothing.
  EXPECT_TRUE(g.children(cluster, power, g.contains_rel()).empty());
  EXPECT_TRUE(g.children(cluster, g.containment(), feeds).empty());
  EXPECT_EQ(g.children(cluster, power, feeds).size(), 1u);
}

TEST_F(SmallCluster, OutEdgesExposeAllSubsystems) {
  const auto power = g.intern_subsystem("power");
  ASSERT_TRUE(g.add_edge(nodes[0], nodes[1], power,
                         g.intern_relation("feeds")));
  std::size_t power_edges = 0;
  for (const Edge& e : g.out_edges(nodes[0])) {
    if (e.subsystem == power) ++power_edges;
  }
  EXPECT_EQ(power_edges, 1u);
}

TEST_F(SmallCluster, TypeInternIsStable) {
  const auto a = g.intern_type("core");
  const auto b = g.intern_type("core");
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.type_name(a), "core");
  EXPECT_EQ(g.find_type("never-seen"), std::nullopt);
}

TEST(ResourceGraph, PoolSizesRespectedInPlanner) {
  ResourceGraph g(0, 100);
  const VertexId mem = g.add_vertex("memory", "memory", 0, 64);
  EXPECT_EQ(g.vertex(mem).schedule->total(), 64);
  EXPECT_TRUE(g.vertex(mem).schedule->avail_during(0, 10, 64));
}

TEST(ResourceGraph, EdgeToUnknownVertexFails) {
  ResourceGraph g(0, 100);
  const VertexId a = g.add_vertex("node", "node", 0, 1);
  EXPECT_EQ(g.add_edge(a, 99, g.containment(), g.contains_rel()).error().code,
            Errc::not_found);
}

TEST(ResourceGraph, UniqIdsAreSequential) {
  ResourceGraph g(0, 100);
  const VertexId a = g.add_vertex("node", "node", 0, 1);
  const VertexId b = g.add_vertex("node", "node", 1, 1);
  EXPECT_EQ(g.vertex(a).uniq_id + 1, g.vertex(b).uniq_id);
}

TEST(ResourceGraph, TooDeepContainmentRefused) {
  // A chain may reach kMaxContainmentDepth levels below its root; an edge
  // that would go one deeper is refused before any change, whether it
  // hangs a vertex under the deepest one or a deep subtree under a root.
  ResourceGraph g(0, 100);
  std::vector<VertexId> chain;
  for (std::size_t i = 0; i <= kMaxContainmentDepth; ++i) {
    chain.push_back(g.add_vertex("node", "node", static_cast<int>(i), 1));
  }
  for (std::size_t i = chain.size() - 1; i > 0; --i) {
    ASSERT_TRUE(g.add_containment(chain[i - 1], chain[i])) << i;
  }
  const VertexId leaf = g.add_vertex("core", "core", 0, 1);
  const VertexId top = g.add_vertex("cluster", "cluster", 0, 1);
  const auto before = containment_state(g);
  EXPECT_EQ(g.add_containment(chain.back(), leaf).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(g.add_containment(top, chain.front()).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(containment_state(g), before);
  EXPECT_TRUE(g.validate());
  // One level up the chain there is room for the leaf.
  EXPECT_TRUE(g.add_containment(chain[chain.size() - 2], leaf));
  EXPECT_TRUE(g.validate());
}

}  // namespace
}  // namespace fluxion::graph
