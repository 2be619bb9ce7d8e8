// Eventlog determinism contract: the JSONL export is a function of the
// workload alone — not of the satisfiability cache. A cache hit replays
// the recorded attribution of the original failure, so the eventlog
// bytes must be identical with the cache on and off, for every policy.
// Any diff means a cache replay re-rendered its verdict.
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "param_bytes.hpp"
#include "policy/policies.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"

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

struct Params {
  std::uint64_t seed;
  queue::QueuePolicy policy;
};

// Zeroes the padding in the case names (see param_bytes.hpp).
void PrintTo(const Params& p, std::ostream* os) {
  testing_support::print_param_bytes(p, os, &Params::seed, &Params::policy);
}

class QueueEventlogDifferential : public ::testing::TestWithParam<Params> {
 protected:
  /// Replay `trace` on a fresh world with the cache on or off and return
  /// the eventlog bytes.
  static std::string run(const std::vector<sim::TraceJob>& trace,
                         queue::QueuePolicy qp, bool cache) {
    graph::ResourceGraph g(0, 1 << 20);
    policy::LowIdPolicy pol;
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto root = grug::build(g, *recipe);
    EXPECT_TRUE(root);
    traverser::Traverser trav(g, *root, pol);
    queue::JobQueue q(trav, qp);
    q.set_match_cache(cache);
    q.set_eventlog(true);
    const auto r = sim::replay_trace(q, trace, 4);
    EXPECT_TRUE(r) << r.error().message;
    return q.eventlog().jsonl();
  }
};

TEST_P(QueueEventlogDifferential, BytesIdenticalWithCacheOnAndOff) {
  sim::TraceConfig cfg;
  cfg.job_count = 50;
  cfg.max_nodes = 8;  // system has 8 nodes
  cfg.min_duration = 60;
  cfg.max_duration = 2 * 3600;
  cfg.duration_quantum = 900;
  util::Rng rng(GetParam().seed);
  auto trace = sim::generate_trace(cfg, rng);
  util::Rng arrivals(GetParam().seed ^ 0x9e3779b97f4a7c15ull);
  sim::stamp_poisson_arrivals(trace, 120.0, arrivals);
  // Unsatisfiable and repeated blocked shapes: rejection events and cache
  // hits have to stay invisible in the log.
  trace.push_back({16, 600, trace.back().arrival / 2});
  trace.push_back({16, 600, trace.back().arrival});

  const std::string want = run(trace, GetParam().policy, /*cache=*/true);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(run(trace, GetParam().policy, /*cache=*/false), want)
      << "eventlog diverged with the cache off";
}

INSTANTIATE_TEST_SUITE_P(
    Storm, QueueEventlogDifferential,
    ::testing::Values(Params{11, queue::QueuePolicy::fcfs},
                      Params{12, queue::QueuePolicy::easy_backfill},
                      Params{13, queue::QueuePolicy::conservative_backfill},
                      Params{14, queue::QueuePolicy::hybrid_backfill}));

}  // namespace
}  // namespace fluxion
