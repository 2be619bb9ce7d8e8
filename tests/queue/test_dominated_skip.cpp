// Dominated skips of the satisfiability cache: within one mutation epoch a
// failed allocate of slot(N){unit{leaves}} for duration d answers every
// allocate of the same shape and anchor asking for N' >= N units over
// d' >= d, without a walk. One test per rule: larger and longer requests
// are answered while smaller or shorter ones still walk; nested shapes,
// reserve probes, introspection, a window past the horizon and a moved
// epoch all keep the walk; and a seeded property run under the traverser
// audit (which re-probes every dominated skip) places every job exactly as
// the cache-off run does.
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "param_bytes.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fluxion::queue {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

// 2 racks x 2 nodes x 4 cores: nested rack{node} shapes have something to
// choose between.
constexpr const char* kSystem =
    "filters node core\nfilter-at cluster rack\n"
    "cluster count=1\n  rack count=2\n    node count=2\n      core count=4\n";

jobspec::Jobspec whole_nodes(std::int64_t n, util::Duration d) {
  auto js = make({slot(n, {xres("node", 1, {res("core", 4)})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

// n racks, each with two whole nodes: the unit has a non-leaf child.
jobspec::Jobspec whole_racks(std::int64_t n, util::Duration d) {
  auto js = make(
      {slot(n, {xres("rack", 1, {res("node", 2, {res("core", 4)})})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

class DominatedSkip : public ::testing::Test {
 protected:
  DominatedSkip() : g(0, 1 << 20) {
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    trav = std::make_unique<traverser::Traverser>(g, *r, pol);
    trav->set_audit(true);
  }

  // Three of the four nodes run until t=100 and a 4-node head holds the
  // one EASY reservation from t=100: one node stays free until then, and
  // later placements leave the epoch alone as long as they fail.
  void fill(JobQueue& q) {
    const JobId a = q.submit(whole_nodes(3, 100));
    const JobId head = q.submit(whole_nodes(4, 100));
    q.schedule();
    ASSERT_EQ(q.find(a)->state, JobState::running);
    ASSERT_EQ(q.find(head)->state, JobState::reserved);
  }

  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

TEST_F(DominatedSkip, FailureAnswersLargerAndLongerRequests) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  fill(q);
  const std::uint64_t errors = util::internal_error_count();
  const JobId b = q.submit(whole_nodes(2, 50));
  q.schedule();  // b walks and fails
  ASSERT_EQ(q.find(b)->state, JobState::pending);
  std::uint64_t calls = q.stats().match_calls;
  EXPECT_EQ(q.stats().match_dominated, 0u);

  const JobId more = q.submit(whole_nodes(3, 50));
  q.schedule();  // b: identical hit; more: dominated by b
  EXPECT_EQ(q.stats().match_calls, calls);
  EXPECT_EQ(q.stats().match_dominated, 1u);
  EXPECT_EQ(q.find(more)->state, JobState::pending);
  EXPECT_EQ(q.find(more)->last_blocked, q.find(b)->last_blocked);

  const JobId longer = q.submit(whole_nodes(2, 80));
  q.schedule();  // more and longer: both dominated by b
  EXPECT_EQ(q.stats().match_calls, calls);
  EXPECT_EQ(q.stats().match_dominated, 3u);
  EXPECT_EQ(q.find(longer)->state, JobState::pending);

  // Neither a shorter nor a smaller request is answered: both walk, and
  // the smaller one fits the free node.
  const JobId shorter = q.submit(whole_nodes(2, 20));
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, ++calls);
  EXPECT_EQ(q.find(shorter)->state, JobState::pending);
  const JobId one = q.submit(whole_nodes(1, 50));
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, calls + 1);
  EXPECT_EQ(q.find(one)->state, JobState::running);
  EXPECT_EQ(util::internal_error_count(), errors);
}

TEST_F(DominatedSkip, NestedShapeIsNeverDominated) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  fill(q);
  const JobId b = q.submit(whole_racks(1, 50));
  q.schedule();  // no rack has two free nodes
  ASSERT_EQ(q.find(b)->state, JobState::pending);
  const std::uint64_t calls = q.stats().match_calls;
  q.submit(whole_racks(2, 50));
  q.submit(whole_racks(1, 80));
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, calls + 2);
  EXPECT_EQ(q.stats().match_dominated, 0u);
}

TEST_F(DominatedSkip, ReserveIsNeverDominated) {
  // Every conservative probe is allocate_orelse_reserve. Past the horizon
  // a reserve fails resource_busy, which is what an allocate would cache.
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(4, (1 << 20) - 10));
  const JobId b = q.submit(whole_nodes(2, 50));
  q.schedule();
  ASSERT_EQ(q.find(a)->state, JobState::running);
  ASSERT_EQ(q.find(b)->state, JobState::pending);
  const std::uint64_t calls = q.stats().match_calls;
  const std::uint64_t skipped = q.stats().match_skipped;
  q.submit(whole_nodes(3, 50));
  q.schedule();  // b: identical hit; the larger job walks
  EXPECT_EQ(q.stats().match_calls, calls + 1);
  EXPECT_EQ(q.stats().match_skipped, skipped + 1);
  EXPECT_EQ(q.stats().match_dominated, 0u);
}

TEST_F(DominatedSkip, IntrospectionTurnsDominanceOff) {
  trav->set_introspection(true);
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  fill(q);
  q.submit(whole_nodes(2, 50));
  q.schedule();
  const std::uint64_t calls = q.stats().match_calls;
  const JobId more = q.submit(whole_nodes(3, 50));
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, calls + 1);
  EXPECT_EQ(q.stats().match_dominated, 0u);
  // The walk's attribution carries tallies a bare code would drop.
  EXPECT_GT(q.find(more)->last_blocked.size(), 1u);
}

TEST_F(DominatedSkip, WindowPastTheHorizonStillWalks) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  fill(q);
  q.submit(whole_nodes(2, 50));
  q.schedule();
  const std::uint64_t calls = q.stats().match_calls;
  const JobId past = q.submit(whole_nodes(2, (1 << 20) + 1));
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, calls + 1);
  EXPECT_EQ(q.stats().match_dominated, 0u);
  EXPECT_EQ(q.find(past)->state, JobState::rejected);
  ASSERT_FALSE(q.find(past)->last_blocked.empty());
  EXPECT_EQ(q.find(past)->last_blocked.front().second, "\"out_of_range\"");
}

TEST_F(DominatedSkip, MovedEpochDropsDominance) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  fill(q);
  q.submit(whole_nodes(2, 50));
  q.schedule();
  const std::uint64_t calls = q.stats().match_calls;
  // Scheduled ahead of the failed job: `one` starts and moves the epoch,
  // so `more` may not lean on the failure recorded before it.
  const JobId one = q.submit(whole_nodes(1, 50), /*priority=*/2);
  const JobId more = q.submit(whole_nodes(3, 50), /*priority=*/1);
  q.schedule();
  EXPECT_EQ(q.find(one)->state, JobState::running);
  EXPECT_EQ(q.find(more)->state, JobState::pending);
  EXPECT_EQ(q.stats().match_calls, calls + 3);
  EXPECT_EQ(q.stats().match_dominated, 0u);
}

// A core contained by two nodes breaks the completeness argument: claiming
// one node can starve another. node0 holds cores a and b, which node1 and
// node2 also contain (each has one core of its own). A 2-node, 2-core
// request over [0, 50) takes node0 first and starves both others; over
// [0, 60) a gpu job holds node0 from t=50, and node1 + node2 fit. So the
// longer request succeeds where the shorter failed, and the walk must run.
TEST(DominatedSkipSharedLeaf, TwoParentLeafKeepsTheWalk) {
  graph::ResourceGraph g(0, 1 << 20);
  const graph::VertexId cluster = g.add_vertex("cluster", "cluster", 0, 1);
  std::vector<graph::VertexId> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(g.add_vertex("node", "node", i, 1));
    ASSERT_TRUE(g.add_containment(cluster, nodes.back()));
  }
  ASSERT_TRUE(g.add_containment(nodes[0], g.add_vertex("gpu", "gpu", 0, 1)));
  for (int i = 0; i < 4; ++i) {
    const graph::VertexId core = g.add_vertex("core", "core", i, 1);
    ASSERT_TRUE(g.add_containment(nodes[i < 2 ? 0 : i - 1], core));
    if (i < 2) {
      ASSERT_TRUE(g.add_edge(nodes[i + 1], core, g.containment(),
                             g.contains_rel()));
    }
  }
  ASSERT_EQ(g.multi_parent_count(), 2u);
  policy::LowIdPolicy pol;
  traverser::Traverser trav(g, cluster, pol);
  trav.set_audit(true);
  auto gpu_job = make({slot(1, {xres("node", 1, {res("gpu", 1)})})},
                      (1 << 20) - 50);
  ASSERT_TRUE(gpu_job);
  ASSERT_TRUE(trav.match(*gpu_job, traverser::MatchOp::allocate, 50, 100));

  JobQueue q(trav, QueuePolicy::easy_backfill);
  auto two_nodes = [](util::Duration d) {
    auto js = make({slot(2, {xres("node", 1, {res("core", 2)})})}, d);
    EXPECT_TRUE(js);
    return *js;
  };
  const JobId shorter = q.submit(two_nodes(50));
  q.schedule();  // the greedy walk fails, and no reservation fits
  ASSERT_EQ(q.find(shorter)->state, JobState::pending);
  const JobId longer = q.submit(two_nodes(60));
  q.schedule();
  EXPECT_EQ(q.stats().match_dominated, 0u);
  EXPECT_EQ(q.find(longer)->state, JobState::running);
}

// --- property: cache on vs off under the audit ------------------------------

struct World {
  graph::ResourceGraph g{0, 1 << 20};
  std::unique_ptr<traverser::MatchPolicy> pol;
  std::unique_ptr<traverser::Traverser> trav;
  std::unique_ptr<JobQueue> q;

  World(QueuePolicy qp, traverser::TraversalMode mode, bool high_id,
        bool cache) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster rack\n"
        "cluster count=1\n  rack count=2\n    node count=4\n"
        "      core count=4\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    if (high_id) {
      pol = std::make_unique<policy::HighIdPolicy>();
    } else {
      pol = std::make_unique<policy::LowIdPolicy>();
    }
    trav = std::make_unique<traverser::Traverser>(g, *r, *pol);
    trav->set_audit(true);
    q = std::make_unique<JobQueue>(*trav, qp);
    q->set_traversal_mode(mode);
    q->set_match_cache(cache);
  }
};

struct Params {
  std::uint64_t seed;
  QueuePolicy policy;
  traverser::TraversalMode mode;
  bool dependencies;
};

// Zeroes the padding in the case names (see param_bytes.hpp).
void PrintTo(const Params& p, std::ostream* os) {
  testing_support::print_param_bytes(p, os, &Params::seed, &Params::policy,
                                     &Params::mode, &Params::dependencies);
}

using Outcome = std::tuple<JobState, util::TimePoint, util::TimePoint,
                           std::vector<std::pair<std::string, std::string>>,
                           util::TimePoint>;

std::map<JobId, Outcome> outcomes(const JobQueue& q) {
  std::map<JobId, Outcome> out;
  for (const JobId id : q.all_jobs()) {
    const Job& j = *q.find(id);
    out[id] = {j.state, j.start_time, j.end_time, j.last_blocked,
               j.last_blocked_time};
  }
  return out;
}

class DominatedSkipProperty : public ::testing::TestWithParam<Params> {};

// Whole-node jobs of 1-8 nodes on 8 nodes. Without dependencies they
// arrive as a Poisson stream; with them, the backlog arrives at t=0 and
// every third job waits on an earlier one.
TEST_P(DominatedSkipProperty, PlacementsMatchCacheOff) {
  const Params& p = GetParam();
  sim::TraceConfig cfg;
  cfg.job_count = 30;
  cfg.max_nodes = 8;
  cfg.min_duration = 60;
  cfg.max_duration = 3600;
  cfg.duration_quantum = 300;
  util::Rng rng(p.seed);
  auto trace = sim::generate_trace(cfg, rng);
  util::Rng extra(p.seed ^ 0x9e3779b97f4a7c15ull);
  sim::stamp_poisson_arrivals(trace, 90.0, extra);

  const std::uint64_t errors = util::internal_error_count();
  std::map<JobId, Outcome> result[2];
  std::uint64_t dominated = 0;
  for (const bool cache : {false, true}) {
    World w(p.policy, p.mode, p.seed % 2 == 1, cache);
    if (p.dependencies) {
      util::Rng deps(p.seed);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        auto js = sim::trace_jobspec(trace[i], 4);
        ASSERT_TRUE(js);
        std::vector<JobId> on;
        if (i > 0 && i % 3 == 0) {
          on.push_back(1 + deps.uniform(0, static_cast<std::int64_t>(i) - 1));
        }
        w.q->submit(*js, 0, std::move(on));
      }
      ASSERT_TRUE(w.q->run_to_completion());
    } else {
      const auto r = sim::replay_trace(*w.q, trace, 4);
      ASSERT_TRUE(r) << r.error().message;
    }
    result[cache] = outcomes(*w.q);
    if (cache) dominated = w.q->stats().match_dominated;
  }
  EXPECT_EQ(util::internal_error_count(), errors)
      << "the audit re-probe found a dominated skip whose walk succeeds";
  ASSERT_EQ(result[0].size(), result[1].size());
  for (const auto& [id, want] : result[0]) {
    EXPECT_EQ(result[1].at(id), want) << "job " << id;
  }
  if (p.policy == QueuePolicy::easy_backfill) {
    EXPECT_GT(dominated, 0u) << "the run must exercise dominance";
  }
}

std::vector<Params> property_params() {
  std::vector<Params> out;
  for (std::uint64_t seed : {11u, 12u}) {
    for (QueuePolicy qp :
         {QueuePolicy::fcfs, QueuePolicy::conservative_backfill,
          QueuePolicy::easy_backfill, QueuePolicy::hybrid_backfill}) {
      for (auto mode : {traverser::TraversalMode::scored,
                        traverser::TraversalMode::first_match}) {
        for (bool deps : {false, true}) out.push_back({seed, qp, mode, deps});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Traces, DominatedSkipProperty,
                         ::testing::ValuesIn(property_params()));

}  // namespace
}  // namespace fluxion::queue
