// Differential property tests for first-match traversal.
//
// Two guarantees are on trial:
//
//  1. Determinism: first-match placements are byte-identical with the
//     satisfiability cache on or off. The mode changes which slot a walk
//     settles on, so it is folded into the cache signature — a verdict
//     cached under one mode must never be replayed under another.
//
//  2. Feasibility: first-match and scored traversal run literally the
//     same per-candidate claim checks (one shared lambda in the satisfy
//     recursion), so a request the first-match walk can place is always
//     one the scored walk can place on the same graph state, and vice
//     versa. The oracle below probes both modes against identical state
//     at every step of an evolving workload and insists the verdicts
//     agree (the *selections* may differ — that is the point of the
//     mode — but feasibility may not).
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
#include "sim/replay.hpp"
#include "sim/workload.hpp"

namespace fluxion {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

constexpr const char* kSystem = R"(
filters node core
filter-at cluster rack
cluster count=1
  rack count=2
    node count=4
      core count=4
)";

// One full scheduler stack in first-match mode; built fresh per variant
// so runs share nothing but the inputs.
struct World {
  graph::ResourceGraph g{0, 1 << 20};
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
  std::unique_ptr<queue::JobQueue> q;

  World(queue::QueuePolicy qp, bool cache) {
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
    trav->set_audit(true);
    q = std::make_unique<queue::JobQueue>(*trav, qp);
    q->set_traversal_mode(traverser::TraversalMode::first_match);
    q->set_match_cache(cache);
  }
};

struct JobView {
  queue::JobState state;
  util::TimePoint start;
  util::TimePoint end;
  std::vector<std::tuple<graph::VertexId, std::int64_t, bool>> resources;
  bool operator==(const JobView&) const = default;
};
using Snapshot = std::map<queue::JobId, JobView>;

Snapshot snapshot(const queue::JobQueue& q,
                  const std::vector<queue::JobId>& ids) {
  Snapshot out;
  for (const auto id : ids) {
    const auto* job = q.find(id);
    EXPECT_NE(job, nullptr) << "job " << id;
    if (job == nullptr) continue;
    JobView v{job->state, job->start_time, job->end_time, {}};
    for (const auto& ru : job->resources) {
      v.resources.emplace_back(ru.vertex, ru.units, ru.exclusive);
    }
    out[id] = std::move(v);
  }
  return out;
}

struct Params {
  std::uint64_t seed;
  queue::QueuePolicy policy;
};

// Zeroes the padding in the case names (see param_bytes.hpp).
void PrintTo(const Params& p, std::ostream* os) {
  testing_support::print_param_bytes(p, os, &Params::seed, &Params::policy);
}

class FirstMatchDifferential : public ::testing::TestWithParam<Params> {};

// Random online workload replayed in first-match mode with the cache on
// and off; both runs must agree on every observable down to the exact
// resource sets.
TEST_P(FirstMatchDifferential, PlacementsIdenticalWithCacheOnAndOff) {
  sim::TraceConfig cfg;
  cfg.job_count = 60;
  cfg.max_nodes = 8;  // system has 8 nodes
  cfg.min_duration = 60;
  cfg.max_duration = 2 * 3600;
  cfg.duration_quantum = 900;
  util::Rng rng(GetParam().seed);
  auto trace = sim::generate_trace(cfg, rng);
  util::Rng arrivals(GetParam().seed ^ 0x9e3779b97f4a7c15ull);
  sim::stamp_poisson_arrivals(trace, 120.0, arrivals);
  // A couple of unsatisfiable requests exercise the rejection path.
  trace.push_back({16, 600, trace.back().arrival / 2});
  trace.push_back({16, 600, trace.back().arrival});

  World base(GetParam().policy, /*cache=*/true);
  const auto r_base = sim::replay_trace(*base.q, trace, 4);
  ASSERT_TRUE(r_base) << r_base.error().message;
  const auto want = snapshot(*base.q, r_base->ids);
  EXPECT_GT(base.trav->stats().first_match_stops, 0u)
      << "a backlog this size must trigger early unwinds";

  World w(GetParam().policy, /*cache=*/false);
  const auto r = sim::replay_trace(*w.q, trace, 4);
  ASSERT_TRUE(r) << r.error().message;
  ASSERT_EQ(r_base->ids, r->ids);
  EXPECT_EQ(r_base->end_time, r->end_time);
  const auto got = snapshot(*w.q, r->ids);
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [id, expected] : want) {
    const auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "job " << id << " missing with cache off";
    EXPECT_EQ(it->second, expected)
        << "job " << id << " diverged with cache off";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FirstMatchDifferential,
    ::testing::Values(Params{11, queue::QueuePolicy::fcfs},
                      Params{12, queue::QueuePolicy::easy_backfill},
                      Params{13, queue::QueuePolicy::conservative_backfill},
                      Params{14, queue::QueuePolicy::hybrid_backfill}));

// Feasibility oracle: drive the traverser directly through an evolving
// allocate/cancel workload, probing every request in BOTH modes against
// the same graph state before committing the first-match selection.
// The verdicts must always agree — first-match only changes which slot
// wins, never whether one exists.
TEST(FirstMatchOracle, FirstMatchFeasibleIffScoredFeasible) {
  graph::ResourceGraph g(0, 1 << 20);
  auto recipe = grug::parse(kSystem);
  ASSERT_TRUE(recipe);
  auto root = grug::build(g, *recipe);
  ASSERT_TRUE(root);
  policy::LowIdPolicy pol;
  traverser::Traverser trav(g, *root, pol);
  trav.set_audit(true);

  util::Rng rng(20260808);
  traverser::MatchScratch fm_scratch, scored_scratch;
  std::vector<traverser::JobId> live;
  traverser::JobId next_id = 1;
  std::size_t placed = 0, refused = 0;
  for (int step = 0; step < 200; ++step) {
    // ~1 in 4 steps frees a random live job so the graph state keeps
    // moving through fragmented shapes.
    if (!live.empty() && rng.chance(0.25)) {
      const auto k = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(trav.cancel(live[k]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    const std::int64_t nodes = rng.uniform(1, 9);  // 9 > node capacity
    const std::int64_t cores = rng.uniform(1, 4);
    auto js = make({slot(nodes, {xres("node", 1, {res("core", cores)})})},
                   1000);
    ASSERT_TRUE(js);
    auto fm = trav.probe(*js, traverser::MatchOp::allocate, 0, next_id,
                         fm_scratch, traverser::TraversalMode::first_match);
    auto scored = trav.probe(*js, traverser::MatchOp::allocate, 0, next_id,
                             scored_scratch,
                             traverser::TraversalMode::scored);
    ASSERT_EQ(fm.ok, scored.ok)
        << "step " << step << ": first-match "
        << (fm.ok ? "placed" : "refused") << " " << nodes << "x" << cores
        << " but scored " << (scored.ok ? "placed" : "refused")
        << " it on identical state";
    if (fm.ok) {
      auto r = trav.commit(std::move(fm));
      ASSERT_TRUE(r) << r.error().message;
      live.push_back(next_id++);
      ++placed;
    } else {
      ++refused;
    }
  }
  // The workload must have exercised both verdicts to prove anything.
  EXPECT_GT(placed, 20u);
  EXPECT_GT(refused, 10u);
  EXPECT_GT(trav.stats().first_match_stops, 0u);
  EXPECT_TRUE(trav.audit());
}

}  // namespace
}  // namespace fluxion
