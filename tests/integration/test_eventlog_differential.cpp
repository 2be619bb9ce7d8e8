// Eventlog determinism contract: the JSONL export is a function of the
// workload alone — not of the execution strategy. Speculative probe
// threads only overlap read-only search work and events are recorded
// exclusively from the serial decision path; a satisfiability-cache hit
// replays the recorded attribution of the original failure. So the
// eventlog bytes must be identical across --match-threads 1/8 and cache
// on/off, for every policy. Any diff means an event leaked out of the
// serial path or a cache replay re-rendered its verdict.
#include <cstddef>
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

struct RunConfig {
  std::size_t threads;
  bool cache;
};

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
  /// Replay `trace` on a fresh world under one execution strategy and
  /// return the eventlog bytes.
  static std::string run(const std::vector<sim::TraceJob>& trace,
                         queue::QueuePolicy qp, const RunConfig& cfg) {
    graph::ResourceGraph g(0, 1 << 20);
    policy::LowIdPolicy pol;
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto root = grug::build(g, *recipe);
    EXPECT_TRUE(root);
    traverser::Traverser trav(g, *root, pol);
    queue::JobQueue q(trav, qp);
    q.set_match_threads(cfg.threads);
    q.set_match_cache(cfg.cache);
    q.set_eventlog(true);
    const auto r = sim::replay_trace(q, trace, 4);
    EXPECT_TRUE(r) << r.error().message;
    return q.eventlog().jsonl();
  }
};

TEST_P(QueueEventlogDifferential, BytesIdenticalAcrossThreadsAndCache) {
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
  // Unsatisfiable and repeated blocked shapes: rejection events, cache
  // hits and speculation re-probes all have to stay invisible in the log.
  trace.push_back({16, 600, trace.back().arrival / 2});
  trace.push_back({16, 600, trace.back().arrival});

  const std::string want =
      run(trace, GetParam().policy, {/*threads=*/1, /*cache=*/true});
  ASSERT_FALSE(want.empty());
  const RunConfig variants[] = {
      {/*threads=*/1, /*cache=*/false},
      {/*threads=*/8, /*cache=*/true},
      {/*threads=*/8, /*cache=*/false},
  };
  for (const auto& v : variants) {
    const std::string got = run(trace, GetParam().policy, v);
    EXPECT_EQ(got, want) << "eventlog diverged at threads=" << v.threads
                         << " cache=" << (v.cache ? "on" : "off");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storm, QueueEventlogDifferential,
    ::testing::Values(Params{11, queue::QueuePolicy::fcfs},
                      Params{12, queue::QueuePolicy::easy_backfill},
                      Params{13, queue::QueuePolicy::conservative_backfill},
                      Params{14, queue::QueuePolicy::hybrid_backfill}));

}  // namespace
}  // namespace fluxion
