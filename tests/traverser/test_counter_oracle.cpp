// Counter-correctness oracle: the obs::PerfMonitor counters must agree
// with independently-tracked ground truth — the traverser's own
// TraverserStats, conservation laws (what a job adds, cancel removes),
// and the enabled/disabled gate.
#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "traverser/traverser.hpp"

namespace fluxion::traverser {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;

constexpr const char* kRecipe = R"(
filters core memory
filter-at cluster rack
cluster count=1
  rack count=2
    node count=2
      core count=4
      memory count=2 size=16
)";

class CounterOracle : public ::testing::Test {
 protected:
  CounterOracle() : g(0, 100000) {
    auto recipe = grug::parse(kRecipe);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<Traverser>(g, root, pol);
    obs::set_enabled(true);
    obs::monitor().reset();
  }
  ~CounterOracle() override { obs::set_enabled(false); }

  jobspec::Jobspec simple_job(std::int64_t cores = 2) {
    auto js = make({res("node", 1, {slot(1, {res("core", cores)})})}, 10);
    EXPECT_TRUE(js);
    return *js;
  }

  graph::ResourceGraph g;
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<Traverser> trav;
};

class CounterOracleModes
    : public CounterOracle,
      public ::testing::WithParamInterface<TraversalMode> {};

// Every walk count reaches its obs mirror exactly once per probe, whether
// the probe is committed or not, in both traversal modes.
TEST_P(CounterOracleModes, VisitsAndPrunedMatchTraverserStats) {
  const TraversalMode mode = GetParam();
  // A drained node is skipped as non-up.
  const auto nodes = g.vertices_of_type(*g.find_type("node"));
  ASSERT_TRUE(g.set_status(nodes.front(), graph::ResourceStatus::drained));

  TraverserStats probed;    // every probe's delta
  TraverserStats committed; // the committed probes' deltas
  auto add = [](TraverserStats& sum, const TraverserStats& d) {
    sum.visits += d.visits;
    sum.pruned += d.pruned;
    sum.status_pruned += d.status_pruned;
    sum.postorder_rejects += d.postorder_rejects;
    sum.first_match_stops += d.first_match_stops;
    sum.match_attempts += d.match_attempts;
  };
  MatchScratch sc;
  auto run = [&](const jobspec::Jobspec& js, JobId job, bool commit) {
    auto p = trav->probe(js, MatchOp::allocate, 0, job, sc, mode);
    add(probed, p.delta);
    if (!commit) return p.ok;
    add(committed, p.delta);
    return static_cast<bool>(trav->commit(std::move(p)));
  };
  // Two cores on the second node of rack0 (the first is drained).
  ASSERT_TRUE(run(simple_job(2), 1, true));
  // Four cores: that node's remaining two fail post-order, rack1 hosts it.
  ASSERT_TRUE(run(simple_job(4), 2, true));
  // A never-committed probe still counts in the monitor.
  ASSERT_TRUE(run(simple_job(4), 3, false));
  // Four cores twice more: rack1's last node takes the first; then
  // rack0 fails post-order, rack1's filter prunes and the match fails.
  ASSERT_TRUE(run(simple_job(4), 4, true));
  ASSERT_FALSE(run(simple_job(4), 5, true));

  const auto& s = trav->stats();
  const auto& m = obs::monitor();
  EXPECT_EQ(s.visits, committed.visits);
  EXPECT_EQ(s.pruned, committed.pruned);
  EXPECT_EQ(s.status_pruned, committed.status_pruned);
  EXPECT_EQ(s.postorder_rejects, committed.postorder_rejects);
  EXPECT_EQ(s.first_match_stops, committed.first_match_stops);
  EXPECT_EQ(s.match_attempts, committed.match_attempts);
  EXPECT_EQ(m.trav_visits.value(), probed.visits);
  EXPECT_EQ(m.trav_pruned.value(), probed.pruned);
  EXPECT_EQ(m.trav_status_pruned.value(), probed.status_pruned);
  EXPECT_EQ(m.trav_postorder_rejects.value(), probed.postorder_rejects);
  EXPECT_EQ(m.trav_first_match_stops.value(), probed.first_match_stops);
  EXPECT_EQ(m.trav_match_attempts.value(), probed.match_attempts);
  EXPECT_GT(probed.visits, committed.visits);
  EXPECT_GT(probed.pruned, 0u);
  EXPECT_GT(probed.status_pruned, 0u);
  EXPECT_GT(probed.postorder_rejects, 0u);
  EXPECT_EQ(probed.match_attempts, 5u);
  // Only first-match walks stop early.
  if (mode == TraversalMode::first_match) {
    EXPECT_GT(probed.first_match_stops, 0u);
  } else {
    EXPECT_EQ(probed.first_match_stops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CounterOracleModes,
    ::testing::Values(TraversalMode::scored, TraversalMode::first_match),
    [](const ::testing::TestParamInfo<TraversalMode>& info) {
      return info.param == TraversalMode::first_match ? "first_match"
                                                      : "scored";
    });

TEST_F(CounterOracle, PerOpCallAndFailureAccounting) {
  const auto js = simple_job();
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 1));
  // 4 nodes x 4 cores: five 4-core exclusive-node slots cannot all fit
  // now, so a plain allocate of the whole machine plus one more fails.
  auto big = make({res("node", 4, {slot(1, {res("core", 4)})})}, 10);
  ASSERT_TRUE(big);
  ASSERT_FALSE(trav->match(*big, MatchOp::allocate, 0, 2));
  const auto& m = obs::monitor();
  const auto& alloc = m.op(obs::Op::allocate);
  EXPECT_EQ(alloc.calls.value(), 2u);
  EXPECT_EQ(alloc.failures.value(), 1u);
  // Every call lands one latency sample, pass or fail.
  EXPECT_EQ(alloc.latency_us.count(), 2u);
  EXPECT_EQ(m.op(obs::Op::cancel).calls.value(), 0u);
}

TEST_F(CounterOracle, CancelConservesPlannerSpans) {
  const auto js = simple_job();
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 1));
  const auto& m = obs::monitor();
  const auto added = m.planner_span_adds.value();
  const auto multi_added = m.multi_span_adds.value();
  ASSERT_GT(added, 0u);
  ASSERT_GT(multi_added, 0u);
  EXPECT_EQ(m.planner_span_removes.value(), 0u);
  ASSERT_TRUE(trav->cancel(1));
  // Everything the allocation posted must come back out on cancel.
  EXPECT_EQ(m.planner_span_removes.value(), added);
  EXPECT_EQ(m.multi_span_removes.value(), multi_added);
  EXPECT_EQ(m.op(obs::Op::cancel).calls.value(), 1u);
}

TEST_F(CounterOracle, SdfuCommitPerSuccessfulMutation) {
  const auto js = simple_job();
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 1));
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 2));
  const auto& m = obs::monitor();
  EXPECT_EQ(m.sdfu_commits.value(), 2u);
  EXPECT_EQ(m.sdfu_spans_per_commit.count(), 2u);
  // Each commit's filter spans are individually counted.
  EXPECT_EQ(m.sdfu_spans.value(),
            static_cast<std::uint64_t>(
                m.sdfu_spans_per_commit.mean() *
                static_cast<double>(m.sdfu_spans_per_commit.count())));
}

TEST_F(CounterOracle, ReservationProbesAdvanceTime) {
  // Fill the machine, then allocate_orelse_reserve must probe future
  // start times through the planner instead of succeeding now.
  auto fill = make({res("node", 4, {slot(1, {res("core", 4)})})}, 100);
  ASSERT_TRUE(fill);
  ASSERT_TRUE(trav->match(*fill, MatchOp::allocate, 0, 1));
  const auto js = simple_job();
  auto r = trav->match(js, MatchOp::allocate_orelse_reserve, 0, 2);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->reserved);
  const auto& m = obs::monitor();
  EXPECT_GT(m.multi_avail_time_first.value(), 0u);
  EXPECT_GT(m.multi_atf_rounds.value(), 0u);
}

TEST_F(CounterOracle, DisabledGateLeavesCountersUntouched) {
  obs::set_enabled(false);
  const auto js = simple_job();
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 1));
  ASSERT_TRUE(trav->cancel(1));
  const auto& m = obs::monitor();
  EXPECT_EQ(m.trav_visits.value(), 0u);
  EXPECT_EQ(m.op(obs::Op::allocate).calls.value(), 0u);
  EXPECT_EQ(m.planner_span_adds.value(), 0u);
  EXPECT_EQ(m.sdfu_commits.value(), 0u);
  // The legacy stats are not gated and still advance.
  EXPECT_GT(trav->stats().visits, 0u);
}

TEST_F(CounterOracle, ClearStatsZeroesCountersAndHistograms) {
  const auto js = simple_job();
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 1));
  auto& m = obs::monitor();
  ASSERT_GT(m.trav_visits.value(), 0u);
  ASSERT_GT(m.op(obs::Op::allocate).latency_us.count(), 0u);
  trav->clear_stats();
  m.reset();
  EXPECT_EQ(trav->stats().visits, 0u);
  EXPECT_EQ(trav->stats().match_attempts, 0u);
  EXPECT_EQ(m.trav_visits.value(), 0u);
  EXPECT_EQ(m.trav_match_attempts.value(), 0u);
  EXPECT_EQ(m.planner_span_adds.value(), 0u);
  EXPECT_EQ(m.op(obs::Op::allocate).calls.value(), 0u);
  EXPECT_EQ(m.op(obs::Op::allocate).latency_us.count(), 0u);
  EXPECT_EQ(m.sdfu_spans_per_commit.count(), 0u);
  // Counting resumes cleanly after a clear.
  ASSERT_TRUE(trav->match(js, MatchOp::allocate, 0, 2));
  EXPECT_EQ(m.op(obs::Op::allocate).calls.value(), 1u);
  EXPECT_EQ(m.trav_visits.value(), trav->stats().visits);
}

}  // namespace
}  // namespace fluxion::traverser
