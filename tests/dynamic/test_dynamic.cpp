// Dynamic-resource subsystem: status flips prune matching, grow adds
// schedulable capacity, shrink evicts and detaches — all transactionally
// (on an injected mid-flight failure the graph equals its pre-call state
// and the full audit passes).
#include <gtest/gtest.h>

#include "dynamic/dynamic.hpp"
#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "graph/graph_stats.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "traverser/traverser.hpp"
#include "writers/jgf.hpp"

namespace fluxion::dynamic {
namespace {

using graph::ResourceStatus;
using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

constexpr const char* kRecipe = R"(
filters core memory
filter-at cluster rack
cluster count=1
  rack count=2
    node count=2
      core count=4
      memory count=2 size=16
)";

constexpr const char* kRackFragment = R"(
filters core memory
filter-at rack
rack count=1
  node count=2
    core count=4
    memory count=2 size=16
)";

class DynamicTest : public ::testing::Test {
 protected:
  DynamicTest() : g(0, 100000) {
    auto recipe = grug::parse(kRecipe);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
    trav->set_audit(true);  // every dynamic mutation self-audits
    dyn = std::make_unique<DynamicResources>(g, *trav);
  }

  jobspec::Jobspec one_node_job(util::Duration duration = 10) {
    auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, duration);
    EXPECT_TRUE(js);
    return *js;
  }

  graph::VertexId at(const std::string& path) {
    auto v = g.find_by_path(path);
    EXPECT_TRUE(v.has_value()) << path;
    return *v;
  }

  struct Snapshot {
    std::string jgf;
    std::size_t live, edges, up, down, drained;
    bool operator==(const Snapshot& o) const {
      return jgf == o.jgf && live == o.live && edges == o.edges &&
             up == o.up && down == o.down && drained == o.drained;
    }
  };
  Snapshot snap() const {
    return {writers::graph_to_jgf(g).pretty(),
            g.live_vertex_count(),
            g.edge_count(),
            g.status_count(ResourceStatus::up),
            g.status_count(ResourceStatus::down),
            g.status_count(ResourceStatus::drained)};
  }

  graph::ResourceGraph g;
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
  std::unique_ptr<DynamicResources> dyn;
};

TEST(ResourceStatusNames, RoundTrip) {
  EXPECT_STREQ(graph::status_name(ResourceStatus::up), "up");
  EXPECT_STREQ(graph::status_name(ResourceStatus::down), "down");
  EXPECT_STREQ(graph::status_name(ResourceStatus::drained), "drained");
  for (auto s : {ResourceStatus::up, ResourceStatus::down,
                 ResourceStatus::drained}) {
    const auto back = graph::parse_status(graph::status_name(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(graph::parse_status("offline").has_value());
}

TEST_F(DynamicTest, DrainedNodeIsNeverMatched) {
  const auto drained = at("/cluster0/rack0/node0");
  auto change = dyn->set_status(drained, ResourceStatus::drained);
  ASSERT_TRUE(change) << change.error().message;
  EXPECT_EQ(change->previous, ResourceStatus::up);
  EXPECT_TRUE(change->evicted.empty());  // drain never evicts

  // 4 nodes minus the drained one: exactly 3 whole-node jobs fit.
  const auto js = one_node_job();
  for (traverser::JobId id = 1; id <= 3; ++id) {
    auto r = trav->match(js, traverser::MatchOp::allocate, 0, id);
    ASSERT_TRUE(r) << r.error().message;
    for (const auto& ru : r->resources) {
      EXPECT_NE(ru.vertex, drained);
      EXPECT_EQ(g.vertex(ru.vertex).status, ResourceStatus::up);
    }
  }
  EXPECT_FALSE(trav->match(js, traverser::MatchOp::allocate, 0, 4));
}

TEST_F(DynamicTest, DownSubtractsCapacityAndUpRestoresIt) {
  const auto rack1 = at("/cluster0/rack1");
  ASSERT_TRUE(dyn->set_status(rack1, ResourceStatus::down));
  EXPECT_EQ(g.status_count(ResourceStatus::down), 15u);  // rack subtree

  auto three = make({slot(3, {xres("node", 1, {res("core", 4)})})}, 10);
  ASSERT_TRUE(three);
  EXPECT_FALSE(trav->match(*three, traverser::MatchOp::allocate, 0, 1));
  auto two = make({slot(2, {xres("node", 1, {res("core", 4)})})}, 10);
  ASSERT_TRUE(two);
  ASSERT_TRUE(trav->match(*two, traverser::MatchOp::allocate, 0, 2));

  ASSERT_TRUE(dyn->set_status(rack1, ResourceStatus::up));
  EXPECT_EQ(g.status_count(ResourceStatus::down), 0u);
  ASSERT_TRUE(trav->match(*two, traverser::MatchOp::allocate, 0, 3));
}

TEST_F(DynamicTest, RawGraphDownRefusesBusySubtreeButDynEvicts) {
  const auto js = one_node_job(1000);
  auto r = trav->match(js, traverser::MatchOp::allocate, 0, 7);
  ASSERT_TRUE(r);
  graph::VertexId node = graph::kInvalidVertex;
  for (const auto& ru : r->resources) {
    if (g.type_name(g.vertex(ru.vertex).type) == std::string("node")) {
      node = ru.vertex;
    }
  }
  ASSERT_NE(node, graph::kInvalidVertex);

  // The graph-layer call refuses: live spans in the subtree.
  auto st = g.set_status(node, ResourceStatus::down);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, util::Errc::resource_busy);

  // The dynamic layer evicts first (kill semantics without a queue).
  auto change = dyn->set_status(node, ResourceStatus::down);
  ASSERT_TRUE(change) << change.error().message;
  ASSERT_EQ(change->evicted.size(), 1u);
  EXPECT_EQ(change->evicted[0], 7);
  EXPECT_EQ(trav->find_job(7), nullptr);
  EXPECT_EQ(g.vertex(node).status, ResourceStatus::down);
  EXPECT_EQ(dyn->stats().evicted_killed, 1u);
}

TEST_F(DynamicTest, MixedStatusSubtreeRevivesInOneCall) {
  const auto rack0 = at("/cluster0/rack0");
  ASSERT_TRUE(dyn->set_status(at("/cluster0/rack0/node0"),
                              ResourceStatus::drained));
  ASSERT_TRUE(dyn->set_status(at("/cluster0/rack0/node1"),
                              ResourceStatus::down));
  ASSERT_TRUE(dyn->set_status(rack0, ResourceStatus::up));
  EXPECT_EQ(g.status_count(ResourceStatus::up), g.live_vertex_count());
  const auto js = one_node_job();
  for (traverser::JobId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(trav->match(js, traverser::MatchOp::allocate, 0, id));
  }
}

TEST_F(DynamicTest, GrowAddsSchedulableCapacityWithFreshNames) {
  const auto js = one_node_job(1000);
  for (traverser::JobId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(trav->match(js, traverser::MatchOp::allocate, 0, id));
  }
  ASSERT_FALSE(trav->match(js, traverser::MatchOp::allocate, 0, 5));

  const std::size_t live_before = g.live_vertex_count();
  auto grown = dyn->grow(root, kRackFragment);
  ASSERT_TRUE(grown) << grown.error().message;
  // Instance numbering continues past the existing racks/nodes.
  EXPECT_EQ(g.vertex(*grown).path, "/cluster0/rack2");
  EXPECT_EQ(g.live_vertex_count(), live_before + 15);

  auto r = trav->match(js, traverser::MatchOp::allocate, 0, 5);
  ASSERT_TRUE(r) << r.error().message;
  for (const auto& ru : r->resources) {
    EXPECT_EQ(g.vertex(ru.vertex).path.rfind("/cluster0/rack2", 0), 0u)
        << g.vertex(ru.vertex).path;
  }

  // stats stay consistent with the graph's own live accounting.
  const auto stats = graph::compute_stats(g, root);
  EXPECT_EQ(stats.vertices, g.live_vertex_count());
  EXPECT_EQ(dyn->stats().grow_calls, 1u);
  EXPECT_EQ(dyn->stats().vertices_added, 15u);

  auto again = dyn->grow(root, kRackFragment);
  ASSERT_TRUE(again) << again.error().message;
  EXPECT_EQ(g.vertex(*again).path, "/cluster0/rack3");
}

TEST_F(DynamicTest, ShrinkEvictsAndDetaches) {
  const auto js = one_node_job(1000);
  for (traverser::JobId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(trav->match(js, traverser::MatchOp::allocate, 0, id));
  }
  const auto rack0 = at("/cluster0/rack0");
  const std::size_t live_before = g.live_vertex_count();
  auto r = dyn->shrink(rack0);
  ASSERT_TRUE(r) << r.error().message;
  EXPECT_EQ(r->removed_vertices, 15u);
  EXPECT_EQ(r->evicted.size(), 2u);  // rack0 hosted two of the four jobs
  EXPECT_EQ(g.live_vertex_count(), live_before - 15);
  EXPECT_FALSE(g.find_by_path("/cluster0/rack0").has_value());

  // Remaining rack is full; nothing else fits.
  EXPECT_FALSE(trav->match(js, traverser::MatchOp::allocate, 0, 9));
  const auto stats = graph::compute_stats(g, root);
  EXPECT_EQ(stats.vertices, g.live_vertex_count());
}

TEST_F(DynamicTest, ShrinkRootIsRejected) {
  auto r = dyn->shrink(root);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, util::Errc::invalid_argument);
}

TEST_F(DynamicTest, UnknownVertexFailsCleanly) {
  const auto bogus = static_cast<graph::VertexId>(g.vertex_count() + 17);
  EXPECT_FALSE(dyn->set_status(bogus, ResourceStatus::down));
  EXPECT_FALSE(dyn->grow(bogus, kRackFragment));
  EXPECT_FALSE(dyn->shrink(bogus));
}

TEST_F(DynamicTest, InjectedFaultsLeaveGraphInPreCallState) {
  const auto rack1 = at("/cluster0/rack1");
  const Snapshot before = snap();
  struct Case {
    const char* point;
    std::function<bool()> call;  // returns success
  };
  const std::vector<Case> cases = {
      {"status:commit",
       [&] { return bool(dyn->set_status(rack1, ResourceStatus::down)); }},
      {"grow:build", [&] { return bool(dyn->grow(root, kRackFragment)); }},
      {"grow:attach", [&] { return bool(dyn->grow(root, kRackFragment)); }},
      {"shrink:evict", [&] { return bool(dyn->shrink(rack1)); }},
      {"shrink:detach", [&] { return bool(dyn->shrink(rack1)); }},
  };
  for (const auto& c : cases) {
    dyn->fail_next(c.point);
    EXPECT_FALSE(c.call()) << c.point;
    EXPECT_TRUE(snap() == before) << c.point;
    EXPECT_TRUE(g.validate()) << c.point;
    EXPECT_TRUE(trav->audit()) << c.point;
  }
  // The fault is one-shot: the very same calls succeed afterwards.
  ASSERT_TRUE(dyn->set_status(rack1, ResourceStatus::down));
  ASSERT_TRUE(dyn->set_status(rack1, ResourceStatus::up));
  auto grown = dyn->grow(root, kRackFragment);
  ASSERT_TRUE(grown);
  ASSERT_TRUE(dyn->shrink(*grown));
  EXPECT_TRUE(snap() == before);
}

TEST_F(DynamicTest, GrowRollbackDiscardsHalfBuiltFragment) {
  const Snapshot before = snap();
  // A fragment whose recipe fails to parse never touches the graph...
  EXPECT_FALSE(dyn->grow(root, "rack count=1\n  node count=-3\n"));
  EXPECT_TRUE(snap() == before);
  // ...and neither does one that fails between build and attach.
  dyn->fail_next("grow:attach");
  EXPECT_FALSE(dyn->grow(root, kRackFragment));
  EXPECT_TRUE(snap() == before);
  EXPECT_TRUE(g.validate());
  EXPECT_TRUE(trav->audit());
  // A later grow reuses no stale names even after the discarded attempts.
  auto grown = dyn->grow(root, kRackFragment);
  ASSERT_TRUE(grown);
  EXPECT_EQ(g.vertex(*grown).path, "/cluster0/rack2");
}

TEST_F(DynamicTest, ObsCountersTrackDynamicActivity) {
  obs::set_enabled(true);
  obs::monitor().reset();
  const auto js = one_node_job(1000);
  ASSERT_TRUE(trav->match(js, traverser::MatchOp::allocate, 0, 1));
  ASSERT_TRUE(dyn->set_status(at("/cluster0/rack0/node0"),
                              ResourceStatus::drained));
  auto grown = dyn->grow(root, kRackFragment);
  ASSERT_TRUE(grown);
  ASSERT_TRUE(dyn->shrink(*grown));
  const auto& m = obs::monitor();
  EXPECT_EQ(m.dyn_status_flips.value(), 1u);
  EXPECT_EQ(m.dyn_grow_calls.value(), 1u);
  EXPECT_EQ(m.dyn_shrink_calls.value(), 1u);
  EXPECT_EQ(m.dyn_vertices_added.value(), 15u);
  EXPECT_EQ(m.dyn_vertices_removed.value(), 15u);
  EXPECT_EQ(m.dyn_grow_latency_us.count(), 1u);
  EXPECT_EQ(m.dyn_shrink_latency_us.count(), 1u);
  // Drained pruning is counted separately from filter pruning.
  ASSERT_TRUE(trav->match(js, traverser::MatchOp::allocate, 0, 2));
  EXPECT_GT(m.trav_status_pruned.value(), 0u);
  obs::set_enabled(false);
}

TEST_F(DynamicTest, JsonMetricsCarryDynamicSection) {
  obs::set_enabled(true);
  obs::monitor().reset();
  ASSERT_TRUE(dyn->set_status(at("/cluster0/rack0/node0"),
                              ResourceStatus::down));
  const std::string doc = obs::monitor().json();
  EXPECT_NE(doc.find("\"dynamic\":{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"status_flips\":1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"grow_latency_us\""), std::string::npos) << doc;
  obs::set_enabled(false);
}

}  // namespace
}  // namespace fluxion::dynamic
