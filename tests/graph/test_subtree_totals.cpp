// The graph's cached subtree totals, checked against a recount written
// here after every kind of structural change, a status flip and a
// snapshot load.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dynamic/dynamic.hpp"
#include "graph/resource_graph.hpp"
#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "policy/policies.hpp"
#include "snapshot/snapshot.hpp"
#include "traverser/traverser.hpp"

namespace fluxion::graph {
namespace {

using Totals = std::vector<std::pair<InternId, std::int64_t>>;

/// Pool sizes per type over v's live containment subtree, by recursion.
void recount(const ResourceGraph& g, VertexId v,
             std::map<InternId, std::int64_t>& out) {
  out[g.vertex(v).type] += g.vertex(v).size;
  for (const Edge& e : g.out_edges(v)) {
    if (e.subsystem == g.containment() && e.relation == g.contains_rel() &&
        g.vertex(e.dst).alive) {
      recount(g, e.dst, out);
    }
  }
}

Totals recounted(const ResourceGraph& g, VertexId v) {
  std::map<InternId, std::int64_t> units;
  recount(g, v, units);
  return {units.begin(), units.end()};
}

Totals cached(const ResourceGraph& g, VertexId v) {
  Totals out;
  for (const TypeCount& tc : g.subtree_counts(v)) {
    out.emplace_back(tc.type, tc.count);
  }
  return out;
}

/// Every live vertex's cached totals equal its recount, type by type in
/// type order.
void expect_exact(const ResourceGraph& g) {
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (!g.vertex(v).alive) continue;
    EXPECT_EQ(cached(g, v), recounted(g, v)) << g.vertex(v).path;
  }
  EXPECT_TRUE(g.validate());
}

constexpr const char* kNodeFragment =
    "node count=1\n  core count=4\n  gpu count=1\n";

class SubtreeTotals : public ::testing::Test {
 protected:
  SubtreeTotals() : g(0, 100000) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster rack\n"
        "cluster count=1\n  rack count=2\n    node count=3\n"
        "      core count=4\n      gpu count=1\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
    dyn = std::make_unique<dynamic::DynamicResources>(g, *trav);
    core_t = *g.find_type("core");
  }

  VertexId at(const char* path) { return *g.find_by_path(path); }

  ResourceGraph g;
  VertexId root = kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
  std::unique_ptr<dynamic::DynamicResources> dyn;
  InternId core_t = util::kInvalidIntern;
};

TEST_F(SubtreeTotals, AddContainment) {
  // Bare containment edges, which no pruning filter follows: a graph
  // without filters keeps validate() meaningful.
  ResourceGraph bare(0, 100000);
  auto recipe = grug::parse(
      "cluster count=1\n  rack count=2\n    node count=3\n"
      "      core count=4\n");
  ASSERT_TRUE(recipe);
  auto top = grug::build(bare, *recipe);
  ASSERT_TRUE(top);
  expect_exact(bare);
  const InternId core_bare = *bare.find_type("core");
  const VertexId rack0 = *bare.find_by_path("/cluster0/rack0");
  EXPECT_EQ(count_of(bare.subtree_counts(rack0), core_bare), 12);
  const VertexId node = bare.add_vertex("node", "node", 90, 1);
  expect_exact(bare);
  ASSERT_TRUE(bare.add_containment(rack0, node));
  expect_exact(bare);
  const VertexId core = bare.add_vertex("core", "core", 0, 1);
  ASSERT_TRUE(bare.add_containment(node, core));
  expect_exact(bare);
  EXPECT_EQ(count_of(bare.subtree_counts(rack0), core_bare), 13);
  EXPECT_EQ(count_of(bare.subtree_counts(*top), core_bare), 25);
}

TEST_F(SubtreeTotals, FilledBottomUpOnDemand) {
  // After a change, a query sums only what it needs: a node first, then
  // the rack above it reuses the node's totals, then the root.
  ASSERT_TRUE(g.detach_subtree(at("/cluster0/rack1/node5")));
  const VertexId node = at("/cluster0/rack0/node1");
  const VertexId rack1 = at("/cluster0/rack1");
  EXPECT_EQ(cached(g, node), recounted(g, node));
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(cached(g, rack1), recounted(g, rack1));
  EXPECT_EQ(cached(g, root), recounted(g, root));
  EXPECT_EQ(count_of(g.subtree_counts(rack1), core_t), 8);
  EXPECT_EQ(count_of(g.subtree_counts(root), core_t), 20);
  expect_exact(g);
}

TEST_F(SubtreeTotals, DetachThenAttach) {
  expect_exact(g);
  const VertexId rack0 = at("/cluster0/rack0");
  const VertexId rack1 = at("/cluster0/rack1");
  ASSERT_TRUE(g.detach_subtree(at("/cluster0/rack0/node1")));
  expect_exact(g);
  EXPECT_EQ(count_of(g.subtree_counts(rack0), core_t), 8);
  // A fragment built detached, then attached elsewhere.
  const VertexId node = g.add_vertex("node", "node", 90, 1);
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(g.add_containment(node, g.add_vertex("core", "core", c, 1)));
  }
  expect_exact(g);
  ASSERT_TRUE(g.attach_subtree(rack1, node));
  expect_exact(g);
  EXPECT_EQ(count_of(g.subtree_counts(rack1), core_t), 14);
  EXPECT_EQ(count_of(g.subtree_counts(root), core_t), 22);
}

TEST_F(SubtreeTotals, FailedGrowRollsBack) {
  expect_exact(g);
  const VertexId rack0 = at("/cluster0/rack0");
  const Totals before = cached(g, root);
  dyn->fail_next("grow:attach");
  ASSERT_FALSE(dyn->grow(rack0, kNodeFragment));
  expect_exact(g);
  EXPECT_EQ(cached(g, root), before);
  auto grown = dyn->grow(rack0, kNodeFragment);
  ASSERT_TRUE(grown) << grown.error().message;
  expect_exact(g);
  EXPECT_EQ(count_of(g.subtree_counts(rack0), core_t), 16);
}

TEST_F(SubtreeTotals, StatusDownAndBackUp) {
  expect_exact(g);
  const VertexId rack0 = at("/cluster0/rack0");
  const VertexId node = at("/cluster0/rack0/node0");
  const Totals before = cached(g, rack0);
  ASSERT_TRUE(g.set_status(node, ResourceStatus::down));
  // Totals count structure, not status; the counted capacity drops.
  expect_exact(g);
  EXPECT_EQ(cached(g, rack0), before);
  EXPECT_EQ(count_of(g.counted_subtree_counts(rack0), core_t), 8);
  ASSERT_TRUE(g.set_status(node, ResourceStatus::up));
  expect_exact(g);
  EXPECT_EQ(cached(g, rack0), before);
  EXPECT_EQ(count_of(g.counted_subtree_counts(rack0), core_t), 12);
}

TEST_F(SubtreeTotals, SnapshotLoad) {
  using jobspec::res;
  using jobspec::xres;
  auto js = jobspec::make(
      {jobspec::slot(2, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, traverser::MatchOp::allocate, 0, 1));
  ASSERT_TRUE(dyn->grow(at("/cluster0/rack1"), kNodeFragment));
  expect_exact(g);
  auto loaded = snapshot::EngineSnapshot::load(
      snapshot::EngineSnapshot::save(g, *trav, nullptr));
  ASSERT_TRUE(loaded) << loaded.error().message;
  const ResourceGraph& g2 = *(*loaded)->graph;
  expect_exact(g2);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).alive) {
      EXPECT_EQ(cached(g2, v), cached(g, v));
    }
  }
  EXPECT_TRUE((*loaded)->traverser->verify_filters());
}

}  // namespace
}  // namespace fluxion::graph
