#include "planner/planner_multi.hpp"

#include <gtest/gtest.h>

#include <array>

namespace fluxion::planner {
namespace {

using util::Errc;

class MultiTest : public ::testing::Test {
 protected:
  MultiTest() : m(0, 1000) {
    EXPECT_TRUE(m.add_resource("core", 40));
    EXPECT_TRUE(m.add_resource("gpu", 4));
    EXPECT_TRUE(m.add_resource("memory", 256));
  }
  PlannerMulti m;
};

TEST_F(MultiTest, RegistersResources) {
  EXPECT_EQ(m.resource_count(), 3u);
  EXPECT_EQ(m.index_of("core"), 0u);
  EXPECT_EQ(m.index_of("gpu"), 1u);
  EXPECT_EQ(m.index_of("memory"), 2u);
  EXPECT_EQ(m.index_of("pfs"), std::nullopt);
  EXPECT_EQ(m.planner_at(0).total(), 40);
}

TEST_F(MultiTest, DuplicateTypeRejected) {
  EXPECT_EQ(m.add_resource("core", 10).error().code, Errc::exists);

  // A pruning filter registers its types under the graph's type ids: a
  // repeat of either the name or the id is refused, a refused call
  // registers nothing, and the two lookups agree.
  PlannerMulti f(0, 100);
  ASSERT_TRUE(f.add_resource("node", 4, 7));
  ASSERT_TRUE(f.add_resource("core", 16, 2));
  EXPECT_EQ(f.add_resource("node", 8, 9).error().code, Errc::exists);
  EXPECT_EQ(f.add_resource("gpu", 4, 2).error().code, Errc::exists);
  EXPECT_EQ(f.resource_count(), 2u);
  EXPECT_EQ(f.index_of("node"), 0u);
  EXPECT_EQ(f.index_of("core"), 1u);
  EXPECT_EQ(f.index_of("node"), f.index_of_id(7));
  EXPECT_EQ(f.index_of("core"), f.index_of_id(2));
  EXPECT_EQ(f.index_of("gpu"), std::nullopt);
  EXPECT_EQ(f.index_of_id(9), std::nullopt);
}

TEST_F(MultiTest, AddSpanClaimsAllTypes) {
  const std::array<std::int64_t, 3> counts{10, 1, 64};
  auto id = m.add_span(0, 100, counts);
  ASSERT_TRUE(id);
  EXPECT_EQ(*m.planner_at(0).avail_at(50), 30);
  EXPECT_EQ(*m.planner_at(1).avail_at(50), 3);
  EXPECT_EQ(*m.planner_at(2).avail_at(50), 192);
  ASSERT_TRUE(m.rem_span(*id));
  EXPECT_EQ(*m.planner_at(0).avail_at(50), 40);
  EXPECT_TRUE(m.validate());
}

TEST_F(MultiTest, ZeroCountSkipsType) {
  const std::array<std::int64_t, 3> counts{10, 0, 0};
  auto id = m.add_span(0, 100, counts);
  ASSERT_TRUE(id);
  EXPECT_EQ(*m.planner_at(1).avail_at(50), 4);
  EXPECT_EQ(m.planner_at(1).span_count(), 0u);
  ASSERT_TRUE(m.rem_span(*id));
}

TEST_F(MultiTest, AtomicFailureWhenOneTypeBusy) {
  const std::array<std::int64_t, 3> all_gpus{0, 4, 0};
  ASSERT_TRUE(m.add_span(0, 100, all_gpus));
  const std::array<std::int64_t, 3> counts{10, 1, 64};
  auto r = m.add_span(50, 100, counts);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
  // Nothing was claimed for the failed request.
  EXPECT_EQ(*m.planner_at(0).avail_at(60), 40);
  EXPECT_EQ(*m.planner_at(2).avail_at(60), 256);
}

TEST_F(MultiTest, ArityMismatchRejected) {
  const std::array<std::int64_t, 2> wrong{1, 1};
  EXPECT_EQ(m.add_span(0, 10, wrong).error().code, Errc::invalid_argument);
  EXPECT_FALSE(m.avail_during(0, 10, wrong));
}

TEST_F(MultiTest, AvailTimeFirstAllFree) {
  const std::array<std::int64_t, 3> counts{40, 4, 256};
  auto r = m.avail_time_first(0, 100, counts);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 0);
}

TEST_F(MultiTest, AvailTimeFirstWaitsForSlowestType) {
  // Cores free at t=100, gpus free at t=200.
  const std::array<std::int64_t, 3> cores{40, 0, 0};
  const std::array<std::int64_t, 3> gpus{0, 4, 0};
  ASSERT_TRUE(m.add_span(0, 100, cores));
  ASSERT_TRUE(m.add_span(0, 200, gpus));
  const std::array<std::int64_t, 3> both{1, 1, 0};
  auto r = m.avail_time_first(0, 50, both);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 200);
}

TEST_F(MultiTest, AvailTimeFirstInterleavedWindows) {
  // Core free windows: [0,100) and [300,...); gpu free: [100, 200) only
  // within the first 400 ticks... construct so first common window is 300+.
  const std::array<std::int64_t, 3> cores{40, 0, 0};
  const std::array<std::int64_t, 3> gpus{0, 4, 0};
  ASSERT_TRUE(m.add_span(100, 200, cores));  // cores busy [100,300)
  ASSERT_TRUE(m.add_span(0, 100, gpus));     // gpus busy [0,100)
  ASSERT_TRUE(m.add_span(200, 100, gpus));   // gpus busy [200,300)
  const std::array<std::int64_t, 3> both{1, 1, 0};
  // Window of 150: cores ok at [0,100) too short... earliest common
  // 150-wide window starts at 300.
  auto r = m.avail_time_first(0, 150, both);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 300);
  // A 100-wide window: cores free [0,100), gpus busy there; next candidate
  // must be 300 as well.
  auto r2 = m.avail_time_first(0, 100, both);
  ASSERT_TRUE(r2);
  EXPECT_EQ(*r2, 300);
}

TEST_F(MultiTest, AvailTimeFirstUnsatisfiable) {
  const std::array<std::int64_t, 3> counts{41, 0, 0};
  auto r = m.avail_time_first(0, 10, counts);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::unsatisfiable);
}

TEST_F(MultiTest, AvailTimeFirstNoDemandReturnsQueryTime) {
  const std::array<std::int64_t, 3> none{0, 0, 0};
  auto r = m.avail_time_first(123, 10, none);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 123);
}

TEST(PlannerMulti, PruningFilterScenario) {
  // A rack-level filter tracking {node, core} aggregates, as in Figure 2:
  // find the earliest time 2 nodes are free, then verify SDFU-style updates.
  PlannerMulti rack(0, 100);
  ASSERT_TRUE(rack.add_resource("node", 4));
  ASSERT_TRUE(rack.add_resource("core", 16));
  const std::array<std::int64_t, 2> job{2, 8};
  auto t = rack.avail_time_first(0, 10, job);
  ASSERT_TRUE(t);
  EXPECT_EQ(*t, 0);
  auto s1 = rack.add_span(0, 10, job);
  ASSERT_TRUE(s1);
  auto s2 = rack.add_span(0, 10, job);
  ASSERT_TRUE(s2);
  // Rack is now full for [0, 10): the traverser would prune this subtree.
  EXPECT_FALSE(rack.avail_during(0, 10, std::array<std::int64_t, 2>{1, 1}));
  auto t2 = rack.avail_time_first(0, 10, job);
  ASSERT_TRUE(t2);
  EXPECT_EQ(*t2, 10);
}

}  // namespace
}  // namespace fluxion::planner
