// Differential property test for the speculative match pipeline:
// placements must be byte-identical at every thread count. Speculation
// may only overlap the read-only probe phase — commits are serial and in
// policy order, and a stale probe is transparently re-probed — so every
// observable (job states, start/end times, the exact resource sets) has
// to agree between threads=1 and any pool size across random workloads
// (all policies) and a dynamic drain/grow/shrink scenario replay. Any
// divergence means a probe outlived a mutation its epoch should have
// caught.
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

// One full scheduler stack; built once per thread count so the runs
// share nothing but the inputs.
struct World {
  graph::ResourceGraph g{0, 1 << 20};
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
  std::unique_ptr<queue::JobQueue> q;
  std::unique_ptr<dynamic::DynamicResources> dyn;

  World(queue::QueuePolicy qp, std::size_t threads) {
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
    trav->set_audit(true);
    q = std::make_unique<queue::JobQueue>(*trav, qp);
    q->set_match_threads(threads);
    dyn = std::make_unique<dynamic::DynamicResources>(g, *trav, q.get());
  }
};

// Everything a user can observe about a finished run — including the
// exact selected resources, since "identical placements" means the same
// vertices, not just the same times. Job ids are deterministic: every
// world submits the same jobs in order.
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

void expect_identical(const Snapshot& serial, const Snapshot& parallel,
                      std::size_t threads) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [id, expected] : serial) {
    const auto it = parallel.find(id);
    ASSERT_NE(it, parallel.end())
        << "job " << id << " missing at threads=" << threads;
    EXPECT_EQ(it->second, expected)
        << "job " << id << " diverged at threads=" << threads
        << ": state " << static_cast<int>(it->second.state) << " vs "
        << static_cast<int>(expected.state) << ", start " << it->second.start
        << " vs " << expected.start << ", end " << it->second.end << " vs "
        << expected.end << ", " << it->second.resources.size() << " vs "
        << expected.resources.size() << " resources";
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

class ParallelDifferential : public ::testing::TestWithParam<Params> {};

// Random online workload (Poisson arrivals, quantized walltimes, a few
// impossible jobs mixed in) replayed at threads 1, 2 and 8.
TEST_P(ParallelDifferential, RandomWorkloadPlacementsIdentical) {
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

  World serial(GetParam().policy, /*threads=*/1);
  const auto r_serial = sim::replay_trace(*serial.q, trace, 4);
  ASSERT_TRUE(r_serial) << r_serial.error().message;
  const auto want = snapshot(*serial.q, r_serial->ids);
  EXPECT_EQ(serial.q->stats().spec_probes, 0u);  // no pool, no speculation

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    World par(GetParam().policy, threads);
    const auto r_par = sim::replay_trace(*par.q, trace, 4);
    ASSERT_TRUE(r_par) << r_par.error().message;
    ASSERT_EQ(r_serial->ids, r_par->ids);
    EXPECT_EQ(r_serial->end_time, r_par->end_time);
    expect_identical(want, snapshot(*par.q, r_par->ids), threads);
    // The parallel run must actually speculate, and the books must
    // balance: every probe is eventually consumed (hit), re-answered
    // (miss) or invalidated (wasted, including any parked at the end).
    const auto& s = par.q->stats();
    EXPECT_GT(s.spec_probes, 0u) << "threads=" << threads;
    EXPECT_GT(s.spec_hits, 0u) << "threads=" << threads;
    EXPECT_LE(s.spec_hits + s.spec_misses + s.spec_wasted, s.spec_probes)
        << "threads=" << threads;
    // Serial and parallel runs issue the same placement decisions.
    EXPECT_EQ(serial.q->stats().match_calls, s.match_calls)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storm, ParallelDifferential,
    ::testing::Values(Params{1, queue::QueuePolicy::fcfs},
                      Params{2, queue::QueuePolicy::easy_backfill},
                      Params{3, queue::QueuePolicy::easy_backfill},
                      Params{4, queue::QueuePolicy::conservative_backfill},
                      Params{5, queue::QueuePolicy::conservative_backfill}));

// Drain/down/grow/shrink scenario replay mid-drain: dynamic mutations
// bump the epoch from outside the match path, so every parked probe must
// be invalidated — a survivor would commit against a graph that no
// longer exists and the snapshots would diverge.
TEST(ParallelDifferentialScenario, DrainGrowShrinkPlacementsIdentical) {
  const char* scenario_text =
      "4 1000\n"          // fills rack0 at t=0
      "4 1000\n"          // fills rack1 at t=0
      "4 2000 100\n"      // queued behind both
      "4 500 150\n"       // repeated blocked shape: speculation fodder
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

  // EASY backfill: the head-blocked job retries with a reserve op the
  // speculation window probed as plain allocate, exercising the
  // consume-time miss path on top of the epoch invalidations.
  World serial(queue::QueuePolicy::easy_backfill, /*threads=*/1);
  const auto r_serial =
      sim::replay_scenario(*serial.q, *serial.dyn, *scenario, 4, resolver);
  ASSERT_TRUE(r_serial) << r_serial.error().message;
  ASSERT_TRUE(serial.q->run_to_completion());
  const auto want = snapshot(*serial.q, r_serial->ids);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    World par(queue::QueuePolicy::easy_backfill, threads);
    const auto r_par =
        sim::replay_scenario(*par.q, *par.dyn, *scenario, 4, resolver);
    ASSERT_TRUE(r_par) << r_par.error().message;
    ASSERT_EQ(r_serial->ids, r_par->ids);
    EXPECT_EQ(r_serial->evicted, r_par->evicted);
    EXPECT_EQ(r_serial->replanned, r_par->replanned);
    ASSERT_TRUE(par.q->run_to_completion());
    expect_identical(want, snapshot(*par.q, r_par->ids), threads);
    EXPECT_GT(par.q->stats().spec_probes, 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace fluxion
