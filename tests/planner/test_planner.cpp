// Unit tests for Planner, including the paper's worked example (§4.1,
// Figure 3): an 8-unit pool receiving jobs <8,1,0>, <3,3,1>, <7,1,6>.
#include "planner/planner.hpp"

#include <gtest/gtest.h>

namespace fluxion::planner {
namespace {

using util::Errc;

TEST(Planner, FreshPlannerFullyAvailable) {
  Planner p(0, 100, 8, "memory");
  EXPECT_EQ(p.total(), 8);
  EXPECT_EQ(p.resource_type(), "memory");
  EXPECT_EQ(*p.avail_at(0), 8);
  EXPECT_EQ(*p.avail_at(99), 8);
  EXPECT_TRUE(p.avail_during(0, 100, 8));
  EXPECT_EQ(p.point_count(), 1u);  // pinned base point
  EXPECT_TRUE(p.validate());
}

TEST(Planner, AvailAtOutsideHorizonFails) {
  Planner p(10, 90, 4, "core");
  EXPECT_FALSE(p.avail_at(9));
  EXPECT_FALSE(p.avail_at(100));
  EXPECT_TRUE(p.avail_at(10));
  EXPECT_TRUE(p.avail_at(99));
}

TEST(Planner, AddSpanClaimsWindow) {
  Planner p(0, 100, 8, "memory");
  auto id = p.add_span(10, 5, 3);
  ASSERT_TRUE(id);
  EXPECT_EQ(*p.avail_at(9), 8);
  EXPECT_EQ(*p.avail_at(10), 5);
  EXPECT_EQ(*p.avail_at(14), 5);
  EXPECT_EQ(*p.avail_at(15), 8);
  EXPECT_TRUE(p.validate());
}

TEST(Planner, AddSpanRejectsBadArgs) {
  Planner p(0, 100, 8, "memory");
  EXPECT_EQ(p.add_span(0, 0, 1).error().code, Errc::invalid_argument);
  EXPECT_EQ(p.add_span(0, 1, 0).error().code, Errc::invalid_argument);
  EXPECT_EQ(p.add_span(0, 1, 9).error().code, Errc::unsatisfiable);
  EXPECT_EQ(p.add_span(-1, 1, 1).error().code, Errc::out_of_range);
  EXPECT_EQ(p.add_span(99, 2, 1).error().code, Errc::out_of_range);
}

TEST(Planner, OversubscriptionRejected) {
  Planner p(0, 100, 8, "memory");
  ASSERT_TRUE(p.add_span(0, 10, 6));
  auto r = p.add_span(5, 10, 3);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
  // Non-overlapping is fine.
  EXPECT_TRUE(p.add_span(10, 10, 3));
  EXPECT_TRUE(p.validate());
}

TEST(Planner, RemSpanRestoresAvailability) {
  Planner p(0, 100, 8, "memory");
  auto id = p.add_span(10, 5, 3);
  ASSERT_TRUE(id);
  ASSERT_TRUE(p.rem_span(*id));
  EXPECT_EQ(*p.avail_at(12), 8);
  EXPECT_EQ(p.point_count(), 1u);  // endpoints collected
  EXPECT_EQ(p.span_count(), 0u);
  EXPECT_TRUE(p.validate());
}

TEST(Planner, RemSpanUnknownIdFails) {
  Planner p(0, 100, 8, "memory");
  EXPECT_EQ(p.rem_span(42).error().code, Errc::not_found);
}

TEST(Planner, SharedEndpointsRefCounted) {
  Planner p(0, 100, 8, "memory");
  auto a = p.add_span(0, 10, 2);   // points at 0, 10
  auto b = p.add_span(10, 10, 2);  // points at 10, 20 (10 shared)
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE(p.rem_span(*a));
  // Point at 10 must survive: span b still anchors there.
  EXPECT_EQ(*p.avail_at(5), 8);
  EXPECT_EQ(*p.avail_at(10), 6);
  ASSERT_TRUE(p.rem_span(*b));
  EXPECT_EQ(p.point_count(), 1u);
  EXPECT_TRUE(p.validate());
}

// A span starting at the base time lands on the inline base point rather
// than creating a second point there; releasing it leaves the base point.
TEST(Planner, SpansAtBaseTimeShareTheBasePoint) {
  Planner p(0, 100, 8, "memory");
  auto a = p.add_span(0, 10, 3);  // base point, point at 10
  auto b = p.add_span(0, 20, 2);  // base point, point at 20
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(p.point_count(), 3u);
  EXPECT_EQ(*p.avail_at(0), 3);
  EXPECT_TRUE(p.validate());
  ASSERT_TRUE(p.resize_total(5));
  EXPECT_EQ(*p.avail_at(0), 0);
  EXPECT_EQ(*p.avail_at(10), 3);
  ASSERT_TRUE(p.rem_span(*a));
  ASSERT_TRUE(p.rem_span(*b));
  EXPECT_EQ(p.point_count(), 1u);
  EXPECT_EQ(*p.avail_at(0), 5);
  EXPECT_TRUE(p.avail_during(0, 100, 5));
  EXPECT_TRUE(p.validate());
}

// --- The paper's Figure 3 walkthrough -------------------------------------

class PaperExample : public ::testing::Test {
 protected:
  PaperExample() : p(0, 100, 8, "memory") {
    EXPECT_TRUE(p.add_span(0, 1, 8));  // <8,1,0>
    EXPECT_TRUE(p.add_span(1, 3, 3));  // <3,3,1>
    EXPECT_TRUE(p.add_span(6, 1, 7));  // <7,1,6>
  }
  Planner p;
};

TEST_F(PaperExample, TimelineMatchesFigure3) {
  EXPECT_EQ(*p.avail_at(0), 0);  // 8 in use
  EXPECT_EQ(*p.avail_at(1), 5);  // 3 in use
  EXPECT_EQ(*p.avail_at(3), 5);
  EXPECT_EQ(*p.avail_at(4), 8);  // idle
  EXPECT_EQ(*p.avail_at(5), 8);
  EXPECT_EQ(*p.avail_at(6), 1);  // 7 in use
  EXPECT_EQ(*p.avail_at(7), 8);
}

TEST_F(PaperExample, SatDuringQueriesFromFigure3d) {
  // "can a request of 5 resource units for a duration of 2 be planned at
  // t1 or t6? Yes for t1, no for t6."
  EXPECT_TRUE(p.avail_during(1, 2, 5));
  EXPECT_FALSE(p.avail_during(6, 2, 5));
}

TEST_F(PaperExample, EarliestAtQueriesFromFigure3d) {
  // "given 6 units for 1 duration unit, earliest point is t5 wait—
  // the paper says t5 for duration 1 and t7 for duration 2" — from t0 the
  // earliest instant with >= 6 free for 1 unit is t4 (8 free at t4..t5);
  // the paper's t5/p2 refers to its probe set {t1, t5, t6, t7}. Verify
  // both the true earliest and the probe-set answers.
  auto one = p.avail_time_first(0, 1, 6);
  ASSERT_TRUE(one);
  EXPECT_EQ(*one, 4);
  EXPECT_TRUE(p.avail_during(5, 1, 6));   // paper's t5 answer is feasible
  auto two = p.avail_time_first(5, 2, 6); // from t5, duration 2 blocked by t6
  ASSERT_TRUE(two);
  EXPECT_EQ(*two, 7);                     // paper: t7 given p4
}

TEST_F(PaperExample, EarliestRespectsOnOrAfter) {
  auto r = p.avail_time_first(6, 1, 6);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 7);
}

// ---------------------------------------------------------------------------

TEST(Planner, AvailTimeFirstOnEmptyPlanner) {
  Planner p(0, 1000, 16, "core");
  auto r = p.avail_time_first(0, 100, 16);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 0);
}

TEST(Planner, AvailTimeFirstSkipsBusyPrefix) {
  Planner p(0, 1000, 16, "core");
  ASSERT_TRUE(p.add_span(0, 100, 16));
  auto r = p.avail_time_first(0, 10, 1);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 100);
}

TEST(Planner, AvailTimeFirstFindsGapOfExactDuration) {
  Planner p(0, 1000, 4, "gpu");
  ASSERT_TRUE(p.add_span(0, 10, 4));
  ASSERT_TRUE(p.add_span(20, 10, 4));
  // Gap [10, 20) fits duration 10 but not 11.
  EXPECT_EQ(*p.avail_time_first(0, 10, 1), 10);
  EXPECT_EQ(*p.avail_time_first(0, 11, 1), 30);
}

TEST(Planner, AvailTimeFirstUnsatisfiableRequest) {
  Planner p(0, 1000, 4, "gpu");
  auto r = p.avail_time_first(0, 10, 5);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::unsatisfiable);
}

TEST(Planner, AvailTimeFirstNoRoomWithinHorizon) {
  Planner p(0, 100, 4, "gpu");
  ASSERT_TRUE(p.add_span(0, 100, 4));
  auto r = p.avail_time_first(0, 10, 1);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
}

// A failed search followed by a re-query: every instantaneously-feasible
// point fails the duration check, the search ends in resource_busy, and
// the planner must still be intact (validate) and answer later queries
// and mutations from the same points.
TEST(Planner, FailedAvailTimeFirstThenRequery) {
  Planner p(0, 100, 8, "core");
  ASSERT_TRUE(p.add_span(0, 10, 8));   // nothing free up front
  ASSERT_TRUE(p.add_span(15, 5, 5));   // free: [10,15)=8, [15,20)=3,
  ASSERT_TRUE(p.add_span(25, 5, 5));   //       [20,25)=8, [25,30)=3,
  ASSERT_TRUE(p.add_span(35, 65, 5));  //       [30,35)=8, [35,100)=3
  // 4-for-30 probes t=10, t=20, t=30 — each has >= 4 free at the instant
  // but hits a 3-free stretch inside the window — then runs out of
  // horizon.
  auto r = p.avail_time_first(0, 30, 4);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
  EXPECT_TRUE(p.validate());
  // The first probed point answers again: a search that lost t=10 would
  // return 20.
  EXPECT_EQ(*p.avail_time_first(0, 5, 8), 10);
  ASSERT_TRUE(p.add_span(10, 5, 8));
  EXPECT_EQ(*p.avail_time_first(0, 5, 8), 20);
  EXPECT_TRUE(p.validate());
}

TEST(Planner, AvailTimeFirstPartialAvailability) {
  Planner p(0, 1000, 8, "core");
  ASSERT_TRUE(p.add_span(0, 50, 6));   // 2 free in [0,50)
  ASSERT_TRUE(p.add_span(50, 50, 3));  // 5 free in [50,100)
  EXPECT_EQ(*p.avail_time_first(0, 10, 2), 0);
  EXPECT_EQ(*p.avail_time_first(0, 10, 5), 50);
  EXPECT_EQ(*p.avail_time_first(0, 10, 8), 100);
}

TEST(Planner, BackToBackSpansFillPool) {
  Planner p(0, 100, 4, "core");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.add_span(0, 100, 1)) << i;
  }
  EXPECT_FALSE(p.avail_during(0, 1, 1));
  EXPECT_EQ(*p.avail_at(50), 0);
  EXPECT_TRUE(p.validate());
}

TEST(Planner, ResizeGrowAddsCapacity) {
  Planner p(0, 100, 4, "core");
  ASSERT_TRUE(p.add_span(0, 100, 4));
  EXPECT_FALSE(p.avail_during(0, 10, 1));
  ASSERT_TRUE(p.resize_total(6));
  EXPECT_TRUE(p.avail_during(0, 10, 2));
  EXPECT_EQ(*p.avail_at(0), 2);
  EXPECT_TRUE(p.validate());
}

TEST(Planner, ResizeShrinkBelowUsageFails) {
  Planner p(0, 100, 4, "core");
  ASSERT_TRUE(p.add_span(0, 10, 3));
  EXPECT_EQ(p.resize_total(2).error().code, Errc::resource_busy);
  ASSERT_TRUE(p.resize_total(3));
  EXPECT_EQ(*p.avail_at(5), 0);
  EXPECT_EQ(*p.avail_at(50), 3);
  EXPECT_TRUE(p.validate());
}

TEST(Planner, FindSpanReportsCommittedWindow) {
  Planner p(0, 100, 8, "memory");
  auto id = p.add_span(10, 5, 3);
  ASSERT_TRUE(id);
  const Span* s = p.find_span(*id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->start, 10);
  EXPECT_EQ(s->last, 15);
  EXPECT_EQ(s->planned, 3);
  EXPECT_EQ(p.find_span(*id + 100), nullptr);
}

TEST(Planner, AvailResourcesDuringReportsWindowMinimum) {
  Planner p(0, 100, 8, "memory");
  ASSERT_TRUE(p.add_span(10, 10, 3));  // 5 free in [10,20)
  ASSERT_TRUE(p.add_span(15, 10, 2));  // 3 free in [15,20), 6 in [20,25)
  EXPECT_EQ(*p.avail_resources_during(0, 10), 8);
  EXPECT_EQ(*p.avail_resources_during(10, 5), 5);
  EXPECT_EQ(*p.avail_resources_during(10, 10), 3);
  EXPECT_EQ(*p.avail_resources_during(0, 100), 3);
  EXPECT_EQ(*p.avail_resources_during(20, 5), 6);
  EXPECT_FALSE(p.avail_resources_during(0, 0));
  EXPECT_FALSE(p.avail_resources_during(-5, 10));
  EXPECT_FALSE(p.avail_resources_during(95, 10));
}

TEST(Planner, ZeroTotalPlannerAlwaysBusy) {
  Planner p(0, 100, 0, "license");
  EXPECT_EQ(*p.avail_at(0), 0);
  EXPECT_EQ(p.add_span(0, 1, 1).error().code, Errc::unsatisfiable);
  EXPECT_TRUE(p.avail_during(0, 10, 0));
}

}  // namespace
}  // namespace fluxion::planner
