// Transactional mutation semantics: every compound traverser mutation
// (match, grow, shrink, extend, restore, cancel) either fully applies or
// leaves the scheduler state exactly as it was — including when an
// internal planner operation fails mid-flight. The unreachable-by-API
// failure branches are driven with the fail_next() fault-injection hook;
// the reachable ones (filter/schedule rejections) are driven through the
// public API alone. Each failed call must leave the full planner state
// (testing_support::planner_state) exactly as it found it.
#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "planner_state.hpp"
#include "policy/policies.hpp"
#include "traverser/traverser.hpp"
#include "util/check.hpp"

namespace fluxion::traverser {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;
using util::Errc;

class Transactional : public ::testing::Test {
 protected:
  Transactional() : g(0, 100000) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster rack\n"
        "cluster count=1\n  rack count=2\n    node count=3\n"
        "      core count=4\n");
    EXPECT_TRUE(recipe);
    auto root = grug::build(g, *recipe);
    EXPECT_TRUE(root);
    trav = std::make_unique<Traverser>(g, *root, pol);
    baseline_internal_ = util::internal_error_count();
  }

  std::uint64_t new_internal_errors() const {
    return util::internal_error_count() - baseline_internal_;
  }

  VertexId first_of(const char* type) const {
    return g.vertices_of_type(*g.find_type(type)).front();
  }

  testing_support::PlannerState state() const {
    return testing_support::planner_state(g, *trav);
  }

  std::int64_t nodes_held(JobId id) const {
    const MatchResult* r = trav->find_job(id);
    std::int64_t n = 0;
    for (const auto& ru : r->resources) {
      if (g.type_name(g.vertex(ru.vertex).type) == "node") ++n;
    }
    return n;
  }

  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<Traverser> trav;
  std::uint64_t baseline_internal_ = 0;
};

// --- reachable rejections leave no trace (public API only) ----------------

TEST_F(Transactional, ExtendScheduleRejectionLeavesStateIntact) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  auto a = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_TRUE(a) << a.error().message;
  // Fill every node for [100, 150): any extension of job 1 must collide.
  auto blocker = make({slot(6, {xres("node", 1, {res("core", 4)})})}, 50);
  ASSERT_TRUE(blocker);
  ASSERT_TRUE(trav->match(*blocker, MatchOp::allocate_orelse_reserve, 0, 2));
  ASSERT_EQ(trav->find_job(2)->at, 100);

  const auto before = state();
  auto st = trav->extend(1, 50);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::resource_busy);
  EXPECT_EQ(trav->find_job(1)->duration, 100);
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  EXPECT_EQ(new_internal_errors(), 0u);

  // Once the collision is gone the same extension goes through.
  ASSERT_TRUE(trav->cancel(2));
  auto ok = trav->extend(1, 50);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_EQ(trav->find_job(1)->duration, 150);
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, ExtendFilterRejectionHappensBeforeAnyMutation) {
  // Regression for the old extend order: schedule spans were swapped and
  // bookkeeping updated before the filter rebuild could refuse. A filter
  // span that saturates the extension tail (without touching any schedule
  // planner) must now bounce the extend before anything moves.
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));

  planner::PlannerMulti& filter = *g.vertex(first_of("cluster")).filter;
  std::vector<std::int64_t> all(filter.resource_count(), 0);
  for (std::size_t i = 0; i < filter.resource_count(); ++i) {
    all[i] = filter.planner_at(i).total();
  }
  auto foreign = filter.add_span(100, 50, all);
  ASSERT_TRUE(foreign) << foreign.error().message;

  const auto before = state();
  auto st = trav->extend(1, 50);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::resource_busy);
  EXPECT_EQ(new_internal_errors(), 0u);
  EXPECT_EQ(state(), before);
  // Nothing moved: window, schedule availability and the job record are
  // exactly as before the call.
  EXPECT_EQ(trav->find_job(1)->duration, 100);
  const VertexId node = trav->find_job(1)->resources.front().vertex;
  EXPECT_TRUE(g.vertex(node).schedule->avail_during(100, 50, 1));

  // Remove the foreign pressure: state must be coherent and the same
  // extend must now succeed.
  ASSERT_TRUE(filter.rem_span(*foreign));
  EXPECT_TRUE(trav->audit());
  auto ok = trav->extend(1, 50);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_EQ(trav->find_job(1)->duration, 150);
  EXPECT_TRUE(trav->audit());
}

// --- injected faults: rollback restores the pre-call state ----------------

TEST_F(Transactional, MatchRollsBackOnClaimFault) {
  auto js = make({slot(2, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  const auto before = state();
  trav->fail_next("apply:claim");
  auto r = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::internal);
  EXPECT_GE(new_internal_errors(), 1u);
  EXPECT_EQ(trav->job_count(), 0u);
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  auto ok = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, MatchRollsBackOnSharedAndFilterFaults) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 2)})})}, 100);
  ASSERT_TRUE(js);
  const auto before = state();
  for (const char* point : {"apply:shared", "apply:filter"}) {
    trav->fail_next(point);
    auto r = trav->match(*js, MatchOp::allocate, 0, 7);
    ASSERT_FALSE(r) << point;
    EXPECT_EQ(r.error().code, Errc::internal) << point;
    EXPECT_EQ(trav->job_count(), 0u) << point;
    EXPECT_EQ(state(), before) << point;
    EXPECT_TRUE(trav->audit()) << point;
  }
  EXPECT_GE(new_internal_errors(), 2u);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 7));
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, GrowRollsBackAndKeepsOriginalAllocation) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  auto extra = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(extra);
  const auto before = state();
  trav->fail_next("apply:claim");
  auto r = trav->grow(1, *extra, 0);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::internal);
  EXPECT_EQ(nodes_held(1), 1);  // original allocation untouched
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  auto ok = trav->grow(1, *extra, 0);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_EQ(nodes_held(1), 2);
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, RestoreRollsBackToEmpty) {
  auto js = make({slot(2, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  auto r = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_TRUE(r);
  const MatchResult allocation = *r;
  ASSERT_TRUE(trav->cancel(1));
  const auto before = state();
  trav->fail_next("apply:filter");
  auto again = trav->restore(allocation);
  ASSERT_FALSE(again);
  EXPECT_EQ(again.error().code, Errc::internal);
  EXPECT_EQ(trav->job_count(), 0u);
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  auto ok = trav->restore(allocation);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, ShrinkRollsBackOnRemovalFault) {
  auto js = make({slot(2, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  const VertexId node = trav->find_job(1)->resources.front().vertex;
  const auto before = state();
  trav->fail_next("shrink:rem");
  auto st = trav->shrink(1, node);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  EXPECT_EQ(nodes_held(1), 2);  // claims restored
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  ASSERT_TRUE(trav->shrink(1, node));
  EXPECT_EQ(nodes_held(1), 1);
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, ShrinkRollsBackOnFilterRebuildFault) {
  auto js = make({slot(2, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  const VertexId node = trav->find_job(1)->resources.front().vertex;
  const auto before = state();
  trav->fail_next("shrink:filter");
  auto st = trav->shrink(1, node);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  // The dropped schedule spans and the prior filter spans are all back.
  EXPECT_EQ(nodes_held(1), 2);
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  ASSERT_TRUE(trav->shrink(1, node));
  EXPECT_EQ(nodes_held(1), 1);
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, ExtendRollsBackOnEachSwapFault) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  const auto before = state();
  for (const char* point :
       {"extend:rem", "extend:claim", "extend:shared", "extend:filter"}) {
    trav->fail_next(point);
    auto st = trav->extend(1, 50);
    ASSERT_FALSE(st) << point;
    EXPECT_EQ(st.error().code, Errc::internal) << point;
    EXPECT_EQ(trav->find_job(1)->duration, 100) << point;
    EXPECT_TRUE(trav->audit()) << point;
    EXPECT_EQ(state(), before) << point;
  }
  EXPECT_GE(new_internal_errors(), 4u);
  auto ok = trav->extend(1, 50);
  ASSERT_TRUE(ok) << ok.error().message;
  EXPECT_EQ(trav->find_job(1)->duration, 150);
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, ExtendAfterShrinkAndGrowStaysTransactional) {
  // Mixed elastic history, then a forced failure: the record with claims
  // from different windows must still roll back cleanly.
  auto js = make({slot(2, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  const VertexId node = trav->find_job(1)->resources.front().vertex;
  ASSERT_TRUE(trav->shrink(1, node));
  auto extra = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(extra);
  ASSERT_TRUE(trav->grow(1, *extra, 40));
  ASSERT_TRUE(trav->audit());

  const auto before = state();
  trav->fail_next("extend:filter");
  auto st = trav->extend(1, 50);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  EXPECT_EQ(trav->find_job(1)->duration, 100);
  EXPECT_EQ(state(), before);
  EXPECT_TRUE(trav->audit());
  ASSERT_TRUE(trav->extend(1, 50));
  EXPECT_EQ(trav->find_job(1)->duration, 150);
  EXPECT_TRUE(trav->audit());
}

// --- the audit hook converts divergence into Errc::internal ---------------

TEST_F(Transactional, AuditHookFlagsForeignCorruption) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  trav->set_audit(true);
  ASSERT_TRUE(trav->extend(1, 10));  // audited mutation, coherent state

  // Corrupt the state behind the traverser's back: a filter span no job
  // accounts for, overlapping the live job's window so the recount sees
  // it. The next audited mutation must report it.
  planner::PlannerMulti& filter = *g.vertex(first_of("cluster")).filter;
  std::vector<std::int64_t> one(filter.resource_count(), 0);
  one[*filter.index_of("core")] = 1;
  auto foreign = filter.add_span(0, 50, one);
  ASSERT_TRUE(foreign);
  auto st = trav->extend(1, 10);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  EXPECT_GE(new_internal_errors(), 1u);

  ASSERT_TRUE(filter.rem_span(*foreign));
  ASSERT_TRUE(trav->extend(1, 10));
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, CancelReportsCorruptionButStillReleases) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 2));  // stays live
  trav->set_audit(true);
  // A foreign filter span overlapping the surviving job's window makes
  // the post-cancel audit diverge.
  planner::PlannerMulti& filter = *g.vertex(first_of("cluster")).filter;
  std::vector<std::int64_t> one(filter.resource_count(), 0);
  one[*filter.index_of("core")] = 1;
  auto foreign = filter.add_span(0, 20, one);
  ASSERT_TRUE(foreign);
  auto st = trav->cancel(1);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error().code, Errc::internal);
  // Job 1 is gone regardless — cancel is best-effort.
  EXPECT_EQ(trav->job_count(), 1u);
  EXPECT_EQ(trav->find_job(1), nullptr);
  ASSERT_TRUE(filter.rem_span(*foreign));
  EXPECT_TRUE(trav->audit());
}

TEST_F(Transactional, FaultHookIsConsumedOnce) {
  auto js = make({slot(1, {xres("node", 1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(js);
  const auto before = state();
  trav->fail_next("apply:claim");
  ASSERT_FALSE(trav->match(*js, MatchOp::allocate, 0, 1));
  EXPECT_EQ(state(), before);
  // The hook fired and cleared itself; the retry is clean.
  auto ok = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_TRUE(ok) << ok.error().message;
  // An unmatched point never fires.
  trav->fail_next("no-such-point");
  ASSERT_TRUE(trav->extend(1, 10));
  EXPECT_TRUE(trav->audit());
}

}  // namespace
}  // namespace fluxion::traverser
