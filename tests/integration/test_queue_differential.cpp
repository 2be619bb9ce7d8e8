// Differential property test for the satisfiability cache: placements
// must be byte-identical with the cache on and off. The cache may only
// skip matches that are guaranteed to fail, so every observable — job
// states, start times, end times, rejection set — has to agree across
// random workloads (all policies) and dynamic drain/grow/shrink scenario
// replays. Any divergence means a stale blocked-signature survived a
// mutation it should have been invalidated by.
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic.hpp"
#include "grug/grug.hpp"
#include "param_bytes.hpp"
#include "policy/policies.hpp"
#include "sim/replay.hpp"
#include "sim/scenario.hpp"

namespace fluxion {
namespace {

constexpr const char* kSystem = R"(
filters node core
filter-at cluster rack
cluster count=1
  rack count=2
    node count=4
      core count=4
)";

constexpr const char* kRackFragment = R"(
filters node core
filter-at rack
rack count=1
  node count=4
    core count=4
)";

// One full scheduler stack; built twice per test so the cache-on and
// cache-off runs share nothing but the inputs.
struct World {
  graph::ResourceGraph g{0, 1 << 20};
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
  std::unique_ptr<queue::JobQueue> q;
  std::unique_ptr<dynamic::DynamicResources> dyn;

  World(queue::QueuePolicy qp, bool cache) {
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
    trav->set_audit(true);
    q = std::make_unique<queue::JobQueue>(*trav, qp);
    q->set_match_cache(cache);
    dyn = std::make_unique<dynamic::DynamicResources>(g, *trav, q.get());
  }
};

// Everything a user can observe about a finished run, keyed by job id
// (ids are deterministic: both worlds submit the same jobs in order).
using Snapshot =
    std::map<queue::JobId,
             std::tuple<queue::JobState, util::TimePoint, util::TimePoint>>;

Snapshot snapshot(const queue::JobQueue& q,
                  const std::vector<queue::JobId>& ids) {
  Snapshot out;
  for (const auto id : ids) {
    const auto* job = q.find(id);
    EXPECT_NE(job, nullptr) << "job " << id;
    if (job == nullptr) continue;
    out[id] = {job->state, job->start_time, job->end_time};
  }
  return out;
}

void expect_identical(const Snapshot& off, const Snapshot& on) {
  ASSERT_EQ(off.size(), on.size());
  for (const auto& [id, expected] : off) {
    const auto it = on.find(id);
    ASSERT_NE(it, on.end()) << "job " << id << " missing with cache on";
    EXPECT_EQ(it->second, expected)
        << "job " << id << " diverged: state/start/end ("
        << static_cast<int>(std::get<0>(it->second)) << ", "
        << std::get<1>(it->second) << ", " << std::get<2>(it->second)
        << ") with cache on vs ("
        << static_cast<int>(std::get<0>(expected)) << ", "
        << std::get<1>(expected) << ", " << std::get<2>(expected)
        << ") with cache off";
  }
}

struct Params {
  std::uint64_t seed;
  queue::QueuePolicy policy;
};

// Zeroes the padding in the case names (see param_bytes.hpp).
void PrintTo(const Params& p, std::ostream* os) {
  testing_support::print_param_bytes(p, os, &Params::seed, &Params::policy);
}

class QueueDifferential : public ::testing::TestWithParam<Params> {};

// Random online workload (Poisson arrivals, quantized walltimes, a few
// impossible jobs mixed in) replayed through both worlds.
TEST_P(QueueDifferential, RandomWorkloadPlacementsIdentical) {
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

  World off(GetParam().policy, /*cache=*/false);
  World on(GetParam().policy, /*cache=*/true);
  const auto r_off = sim::replay_trace(*off.q, trace, 4);
  const auto r_on = sim::replay_trace(*on.q, trace, 4);
  ASSERT_TRUE(r_off) << r_off.error().message;
  ASSERT_TRUE(r_on) << r_on.error().message;
  ASSERT_EQ(r_off->ids, r_on->ids);
  EXPECT_EQ(r_off->end_time, r_on->end_time);
  expect_identical(snapshot(*off.q, r_off->ids), snapshot(*on.q, r_on->ids));
  // The runs must be differential in work, not just identical in outcome:
  // the cache-off world re-matches what the cache-on world skips.
  EXPECT_EQ(off.q->stats().match_skipped, 0u);
  EXPECT_GE(off.q->stats().match_calls, on.q->stats().match_calls);
}

INSTANTIATE_TEST_SUITE_P(
    Storm, QueueDifferential,
    ::testing::Values(Params{1, queue::QueuePolicy::fcfs},
                      Params{2, queue::QueuePolicy::easy_backfill},
                      Params{3, queue::QueuePolicy::easy_backfill},
                      Params{4, queue::QueuePolicy::conservative_backfill},
                      Params{5, queue::QueuePolicy::conservative_backfill}));

// Drain/down/grow/shrink scenario replay: each dynamic event class must
// invalidate blocked signatures, otherwise a requeued or newly-feasible
// job stays stuck with the cache on and the snapshots diverge.
TEST(QueueDifferentialScenario, DrainGrowShrinkPlacementsIdentical) {
  const char* scenario_text =
      "4 1000\n"          // fills rack0 at t=0
      "4 1000\n"          // fills rack1 at t=0
      "4 2000 100\n"      // queued behind both
      "4 500 150\n"       // repeated blocked shape: cache skip fodder
      "4 500 160\n"
      "@ 200 status /cluster0/rack0/node0 drained\n"
      "@ 300 status /cluster0/rack1/node4 down requeue\n"
      "@ 400 status /cluster0/rack1/node4 up\n"
      "@ 500 grow /cluster0 rack.grug\n"
      "@ 2600 status /cluster0/rack0/node0 up\n"
      "@ 2800 shrink /cluster0/rack2 requeue\n";
  auto scenario = sim::parse_scenario(scenario_text);
  ASSERT_TRUE(scenario) << scenario.error().message;
  const sim::RecipeResolver resolver =
      [](const std::string& ref) -> util::Expected<std::string> {
    if (ref == "rack.grug") return std::string(kRackFragment);
    return util::Error{util::Errc::not_found, "no recipe '" + ref + "'"};
  };

  // EASY backfill: non-head jobs probe with plain allocate, whose
  // failures are what the cache records — conservative would reserve
  // everything and never populate it.
  World off(queue::QueuePolicy::easy_backfill, /*cache=*/false);
  World on(queue::QueuePolicy::easy_backfill, /*cache=*/true);
  const auto r_off =
      sim::replay_scenario(*off.q, *off.dyn, *scenario, 4, resolver);
  const auto r_on =
      sim::replay_scenario(*on.q, *on.dyn, *scenario, 4, resolver);
  ASSERT_TRUE(r_off) << r_off.error().message;
  ASSERT_TRUE(r_on) << r_on.error().message;
  ASSERT_EQ(r_off->ids, r_on->ids);
  EXPECT_EQ(r_off->evicted, r_on->evicted);
  EXPECT_EQ(r_off->replanned, r_on->replanned);
  EXPECT_EQ(r_off->end_time, r_on->end_time);
  expect_identical(snapshot(*off.q, r_off->ids), snapshot(*on.q, r_on->ids));
  ASSERT_TRUE(off.q->run_to_completion());
  ASSERT_TRUE(on.q->run_to_completion());
  expect_identical(snapshot(*off.q, r_off->ids), snapshot(*on.q, r_on->ids));
  // Dynamic events must have invalidated the cache at least once, or the
  // scenario never exercised the interesting path.
  EXPECT_GE(on.q->stats().cache_invalidations, 1u);
}

}  // namespace
}  // namespace fluxion
