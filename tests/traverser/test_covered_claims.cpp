// Covered claims: once a job holds a vertex with an exclusive whole-instance
// claim, the claims beneath it are booked by that claim's schedule span
// alone. They stay in the job's resources but get no span and no planner
// query; every other reader of schedule spans (shrink, extend, restore,
// snapshots, status changes, the audit) must treat them as held. A vertex
// with a second incoming `contains` edge (the §5.1 rabbit) is never
// covered.
#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "planner_state.hpp"
#include "policy/policies.hpp"
#include "snapshot/snapshot.hpp"
#include "traverser/traverser.hpp"
#include "util/check.hpp"

namespace fluxion::traverser {
namespace {

using graph::ResourceStatus;
using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;
using util::Errc;

jobspec::Jobspec whole_nodes(std::int64_t n, util::Duration d) {
  auto js = make({slot(n, {xres("node", 1, {res("core", 4)})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

class CoveredClaims : public ::testing::Test {
 protected:
  CoveredClaims() : g(0, 100000) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster rack\n"
        "cluster count=1\n  rack count=2\n    node count=3\n"
        "      core count=4\n");
    EXPECT_TRUE(recipe);
    auto root = grug::build(g, *recipe);
    EXPECT_TRUE(root);
    trav = std::make_unique<Traverser>(g, *root, pol);
    trav->set_audit(true);
    baseline_internal_ = util::internal_error_count();
  }

  std::size_t schedule_spans() const {
    std::size_t n = 0;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      n += g.vertex(v).schedule->span_count();
    }
    return n;
  }

  std::int64_t covered_total() const {
    std::int64_t n = 0;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      n += g.vertex(v).covered_claims;
    }
    return n;
  }

  std::vector<VertexId> held(JobId id, const char* type) const {
    std::vector<VertexId> out;
    for (const auto& ru : trav->find_job(id)->resources) {
      if (g.type_name(g.vertex(ru.vertex).type) == type) {
        out.push_back(ru.vertex);
      }
    }
    return out;
  }

  std::uint64_t new_internal_errors() const {
    return util::internal_error_count() - baseline_internal_;
  }

  /// Full planner state, compared across each injected fault.
  testing_support::PlannerState state() const {
    return testing_support::planner_state(g, *trav);
  }

  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<Traverser> trav;
  std::uint64_t baseline_internal_ = 0;
};

TEST_F(CoveredClaims, WholeNodeCommitBooksOneSpanPerNode) {
  auto r = trav->match(whole_nodes(3, 100), MatchOp::allocate, 0, 1);
  ASSERT_TRUE(r) << r.error().message;
  // The job still reports every node and core it holds...
  EXPECT_EQ(held(1, "node").size(), 3u);
  EXPECT_EQ(held(1, "core").size(), 12u);
  // ...but only the nodes carry schedule spans; the cores are covered.
  EXPECT_EQ(schedule_spans(), 3u);
  EXPECT_EQ(covered_total(), 12);
  for (VertexId core : held(1, "core")) {
    EXPECT_EQ(g.vertex(core).schedule->span_count(), 0u);
    EXPECT_EQ(g.vertex(core).covered_claims, 1);
  }
  // The covered cores stay unavailable to everyone else.
  auto cores = make({res("node", 1, {slot(1, {res("core", 1)})})}, 100);
  ASSERT_TRUE(cores);
  auto other = trav->match(*cores, MatchOp::allocate, 0, 2);
  ASSERT_TRUE(other) << other.error().message;
  for (VertexId core : held(2, "core")) {
    EXPECT_EQ(g.vertex(core).covered_claims, 0);
  }
  ASSERT_TRUE(trav->cancel(1));
  ASSERT_TRUE(trav->cancel(2));
  EXPECT_EQ(schedule_spans(), 0u);
  EXPECT_EQ(covered_total(), 0);
  EXPECT_EQ(new_internal_errors(), 0u);
}

TEST_F(CoveredClaims, StatusDownAndDetachRefusedUnderALiveNodeClaim) {
  ASSERT_TRUE(trav->match(whole_nodes(1, 100), MatchOp::allocate, 0, 1));
  const VertexId core = held(1, "core").front();
  auto down = g.set_status(core, ResourceStatus::down);
  ASSERT_FALSE(down);
  EXPECT_EQ(down.error().code, Errc::resource_busy);
  auto detach = g.detach_subtree(core);
  ASSERT_FALSE(detach);
  EXPECT_EQ(detach.error().code, Errc::resource_busy);
  EXPECT_EQ(g.vertex(core).status, ResourceStatus::up);
  EXPECT_TRUE(g.vertex(core).alive);
  // Draining keeps existing allocations running, so it is allowed.
  ASSERT_TRUE(g.set_status(core, ResourceStatus::drained));
  ASSERT_TRUE(g.set_status(core, ResourceStatus::up));

  ASSERT_TRUE(trav->cancel(1));
  EXPECT_TRUE(g.set_status(core, ResourceStatus::down));
  EXPECT_TRUE(g.detach_subtree(core));
}

TEST_F(CoveredClaims, ShrinkOfACoveredCoreRollsBackAndThenApplies) {
  ASSERT_TRUE(trav->match(whole_nodes(2, 100), MatchOp::allocate, 0, 1));
  const VertexId core = held(1, "core").front();
  const VertexId node = g.vertex(core).containment_parent;

  auto before = state();
  trav->fail_next("shrink:filter");
  auto st = trav->shrink(1, core);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  EXPECT_EQ(state(), before);
  EXPECT_EQ(held(1, "core").size(), 8u);
  EXPECT_EQ(g.vertex(core).covered_claims, 1);
  EXPECT_TRUE(trav->audit());

  ASSERT_TRUE(trav->shrink(1, core));
  EXPECT_EQ(held(1, "core").size(), 7u);
  EXPECT_EQ(g.vertex(core).covered_claims, 0);
  EXPECT_EQ(g.vertex(node).schedule->span_count(), 1u);  // node still held
  EXPECT_TRUE(trav->audit());

  // Releasing the node under a fault restores both the node's span and
  // the covered cores beneath it.
  before = state();
  trav->fail_next("shrink:rem");
  st = trav->shrink(1, node);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  EXPECT_EQ(state(), before);
  EXPECT_EQ(held(1, "node").size(), 2u);
  EXPECT_EQ(covered_total(), 7);
  EXPECT_TRUE(trav->audit());
  ASSERT_TRUE(trav->shrink(1, node));
  EXPECT_EQ(held(1, "node").size(), 1u);
  EXPECT_EQ(covered_total(), 4);
  EXPECT_EQ(schedule_spans(), 1u);
  EXPECT_TRUE(trav->audit());
}

TEST_F(CoveredClaims, ExtendWithCoveredClaimsRollsBackOnEachFault) {
  ASSERT_TRUE(trav->match(whole_nodes(2, 100), MatchOp::allocate, 0, 1));
  const auto before = state();
  for (const char* point :
       {"extend:rem", "extend:claim", "extend:shared", "extend:filter"}) {
    trav->fail_next(point);
    auto st = trav->extend(1, 50);
    ASSERT_FALSE(st) << point;
    EXPECT_EQ(st.error().code, Errc::internal) << point;
    EXPECT_EQ(trav->find_job(1)->duration, 100) << point;
    // The audit checks that covered claims share their node's window.
    EXPECT_TRUE(trav->audit()) << point;
    EXPECT_EQ(state(), before) << point;
  }
  auto ok = trav->extend(1, 50);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_EQ(trav->find_job(1)->duration, 150);
  EXPECT_EQ(schedule_spans(), 2u);
  EXPECT_TRUE(trav->audit());
}

TEST_F(CoveredClaims, ExtendRefusesATailAnotherJobWalksThrough) {
  // Job 1 holds node0 and two of its cores, so node0 covers them. Job 2
  // reserves two other cores of node0 right after job 1 ends, walking
  // through node0 shared. Extending job 1 would overlap job 2's use of
  // node0, which job 1 holds whole.
  auto two = make({slot(1, {xres("node", 1, {res("core", 2)})})}, 100);
  ASSERT_TRUE(two);
  ASSERT_TRUE(trav->match(*two, MatchOp::allocate, 0, 1));
  const VertexId node = held(1, "node").front();
  // Every other node is taken for longer, so job 2 lands on node0 once
  // job 1 ends.
  auto rest = make({slot(5, {xres("node", 1, {res("core", 4)})})}, 1000);
  ASSERT_TRUE(rest);
  ASSERT_TRUE(trav->match(*rest, MatchOp::allocate, 0, 3));
  auto cores = make({res("node", 1, {slot(1, {res("core", 2)})})}, 50);
  ASSERT_TRUE(cores);
  auto r = trav->match(*cores, MatchOp::allocate_orelse_reserve, 0, 2);
  ASSERT_TRUE(r) << r.error().message;
  ASSERT_EQ(r->at, 100);
  for (VertexId core : held(2, "core")) {
    ASSERT_EQ(g.vertex(core).containment_parent, node);
  }

  auto st = trav->extend(1, 10);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::resource_busy);
  EXPECT_EQ(trav->find_job(1)->duration, 100);
  ASSERT_TRUE(trav->cancel(2));
  ASSERT_TRUE(trav->extend(1, 10));
  EXPECT_EQ(new_internal_errors(), 0u);
}

TEST_F(CoveredClaims, RestoreChecksTheClaimThatBooksAVertex) {
  // Job 1 holds rack0 whole: its nodes and cores are covered and carry
  // no spans. Restoring a node of rack0 for another job must still fail.
  auto rack = make({slot(1, {xres("rack", 1, {res("node", 3, {res("core", 4)})})})},
                   100);
  ASSERT_TRUE(rack);
  ASSERT_TRUE(trav->match(*rack, MatchOp::allocate, 0, 1));
  EXPECT_EQ(schedule_spans(), 1u);
  const VertexId node = held(1, "node").front();
  MatchResult other;
  other.job = 2;
  other.at = 50;
  other.duration = 100;
  other.resources.push_back({node, 1, true});
  auto r = trav->restore(other);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
  EXPECT_EQ(trav->job_count(), 1u);

  // The job's own allocation restores with the same coverage.
  const MatchResult mine = *trav->find_job(1);
  ASSERT_TRUE(trav->cancel(1));
  auto back = trav->restore(mine);
  ASSERT_TRUE(back) << back.error().message;
  EXPECT_EQ(schedule_spans(), 1u);
  EXPECT_EQ(covered_total(), 3 + 12);
  EXPECT_TRUE(trav->audit());
}

TEST_F(CoveredClaims, SnapshotRoundTripKeepsCoverage) {
  ASSERT_TRUE(trav->match(whole_nodes(2, 100), MatchOp::allocate, 0, 1));
  ASSERT_TRUE(trav->match(whole_nodes(3, 50), MatchOp::allocate_orelse_reserve,
                          0, 2));
  const std::string bytes = snapshot::EngineSnapshot::save(g, *trav, nullptr);
  auto eng = snapshot::EngineSnapshot::load(bytes);
  ASSERT_TRUE(eng) << eng.error().message;
  graph::ResourceGraph& g2 = *(*eng)->graph;
  Traverser& t2 = *(*eng)->traverser;
  EXPECT_EQ(snapshot::EngineSnapshot::save(g2, t2, nullptr), bytes);
  EXPECT_TRUE(t2.audit());
  std::size_t spans = 0;
  std::int64_t covered = 0;
  for (VertexId v = 0; v < g2.vertex_count(); ++v) {
    spans += g2.vertex(v).schedule->span_count();
    covered += g2.vertex(v).covered_claims;
  }
  EXPECT_EQ(spans, schedule_spans());
  EXPECT_EQ(covered, covered_total());
  EXPECT_EQ(spans, 5u);

  ASSERT_TRUE(t2.cancel(1));
  ASSERT_TRUE(t2.cancel(2));
  for (VertexId v = 0; v < g2.vertex_count(); ++v) {
    const graph::Vertex& vx = g2.vertex(v);
    EXPECT_EQ(vx.schedule->span_count(), 0u) << vx.path;
    EXPECT_EQ(vx.x_checker->span_count(), 0u) << vx.path;
    if (vx.filter != nullptr) {
      EXPECT_EQ(vx.filter->span_count(), 0u) << vx.path;
    }
    EXPECT_EQ(vx.covered_claims, 0) << vx.path;
  }
}

TEST_F(CoveredClaims, AuditCatchesACoveredCountNoClaimExplains) {
  ASSERT_TRUE(trav->match(whole_nodes(1, 100), MatchOp::allocate, 0, 1));
  const VertexId core = held(1, "core").front();
  ++g.vertex(core).covered_claims;
  EXPECT_FALSE(trav->audit());
  --g.vertex(core).covered_claims;
  EXPECT_TRUE(trav->audit());
  // A schedule span that no booked claim owns is caught too.
  auto foreign = g.vertex(core).schedule->add_span(200, 10, 1);
  ASSERT_TRUE(foreign);
  EXPECT_FALSE(trav->audit());
  ASSERT_TRUE(g.vertex(core).schedule->rem_span(*foreign));
  EXPECT_TRUE(trav->audit());
}

// The §5.1 rabbit: contained by its rack and, in the storage subsystem,
// by the cluster. A walk can reach it without passing its rack, so an
// exclusive rack claim must not cover it.
class DoubleHomedRabbit : public ::testing::Test {
 protected:
  DoubleHomedRabbit() : g(0, 100000) {
    const auto storage = g.intern_subsystem("storage");
    cluster = g.add_vertex("cluster", "cluster", 0, 1);
    for (int r = 0; r < 2; ++r) {
      const VertexId rack = g.add_vertex("rack", "rack", r, 1);
      EXPECT_TRUE(g.add_containment(cluster, rack));
      for (int n = 0; n < 2; ++n) {
        const VertexId node = g.add_vertex("node", "node", r * 2 + n, 1);
        EXPECT_TRUE(g.add_containment(rack, node));
      }
      const VertexId rabbit = g.add_vertex("rabbit", "rabbit", r, 1);
      EXPECT_TRUE(g.add_containment(rack, rabbit));
      EXPECT_TRUE(g.add_edge(cluster, rabbit, storage, g.contains_rel()));
      const VertexId ssd = g.add_vertex("ssd", "ssd", r, 1024);
      EXPECT_TRUE(g.add_containment(rabbit, ssd));
      rabbits.push_back(rabbit);
      ssds.push_back(ssd);
    }
    g.set_subsystem_filter({g.containment(), storage});
    trav = std::make_unique<Traverser>(g, cluster, pol);
    trav->set_audit(true);
  }

  graph::ResourceGraph g;
  VertexId cluster = graph::kInvalidVertex;
  std::vector<VertexId> rabbits, ssds;
  policy::LowIdPolicy pol;
  std::unique_ptr<Traverser> trav;
};

TEST_F(DoubleHomedRabbit, RabbitKeepsItsSpanAndCoversItsSsd) {
  auto a = make({xres("rack", 2, {res("rabbit", 1,
                                      {slot(1, {res("ssd", 1024)})})})},
                100);
  ASSERT_TRUE(a);
  ASSERT_TRUE(trav->match(*a, MatchOp::allocate, 0, 1));
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(g.vertex(rabbits[r]).contains_in, 2u);
    EXPECT_EQ(g.vertex(rabbits[r]).schedule->span_count(), 1u);
    EXPECT_EQ(g.vertex(ssds[r]).schedule->span_count(), 0u);
    EXPECT_EQ(g.vertex(ssds[r]).covered_claims, 1);
  }
  // B reaches a rabbit through cluster -> rabbit, bypassing the racks
  // job A holds; the rabbit's own span must refuse it.
  auto b = make({res("rabbit", 1, {slot(1, {res("ssd", 1024)})})}, 100);
  ASSERT_TRUE(b);
  auto rb = trav->match(*b, MatchOp::allocate, 0, 2);
  ASSERT_FALSE(rb);
  EXPECT_EQ(rb.error().code, Errc::resource_busy);
  ASSERT_TRUE(trav->cancel(1));
  ASSERT_TRUE(trav->match(*b, MatchOp::allocate, 0, 2));
  EXPECT_TRUE(trav->audit());
}

}  // namespace
}  // namespace fluxion::traverser
