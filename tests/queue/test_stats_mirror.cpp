// QueueStats <-> obs::PerfMonitor mirror completeness: every monotone
// QueueStats tally has a queue_* counter in the monitor, and the two are
// incremented at the same sites — so after any scenario they agree
// exactly. Non-monotone fields are excluded by design: `reserved` is
// decremented on un-reserve (the monotone pair reservations_made /
// reservations_dropped is mirrored instead) and `total_match_seconds` is
// a double accumulator (mirrored as latency histograms, not a counter).
#include "queue/job_queue.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "grug/grug.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"

namespace fluxion::queue {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

jobspec::Jobspec whole_nodes(std::int64_t n, util::Duration d) {
  auto js = make({slot(n, {xres("node", 1, {res("core", 4)})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

class StatsMirrorFixture : public ::testing::Test {
 protected:
  StatsMirrorFixture() : g(0, 1 << 20) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster\n"
        "cluster count=1\n  node count=4\n    core count=4\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    trav = std::make_unique<traverser::Traverser>(g, *r, pol);
    obs::set_enabled(true);
    obs::monitor().reset();
  }
  ~StatsMirrorFixture() override { obs::set_enabled(false); }

  /// Assert every monotone QueueStats field equals its obs mirror.
  static void expect_lockstep(const QueueStats& s) {
    const auto& m = obs::monitor();
    EXPECT_EQ(s.submitted, m.queue_submitted.value());
    EXPECT_EQ(s.started_immediately, m.queue_started_immediately.value());
    EXPECT_EQ(s.completed, m.queue_completed.value());
    EXPECT_EQ(s.rejected, m.queue_rejected.value());
    EXPECT_EQ(s.events_fired, m.queue_events_fired.value());
    EXPECT_EQ(s.heap_pops, m.queue_jobs_scanned.value());
    EXPECT_EQ(s.match_calls, m.queue_match_calls.value());
    EXPECT_EQ(s.match_skipped, m.queue_match_skipped.value());
    EXPECT_EQ(s.cache_invalidations, m.queue_cache_invalidations.value());
    EXPECT_EQ(s.reservations_made, m.queue_reservations_made.value());
    EXPECT_EQ(s.reservations_dropped, m.queue_reservations_dropped.value());
  }

  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

TEST_F(StatsMirrorFixture, SerialScenarioStaysInLockstep) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  // Exercise every serial-path tally: immediate starts, reservations,
  // cache skips (same blocked spec twice), a cache invalidation (the
  // completion mutates the graph under a live cached verdict), an
  // unsatisfiable reject, and a dropped reservation (cancel).
  q.submit(whole_nodes(4, 100));            // fills the machine
  const JobId r1 = q.submit(whole_nodes(2, 50));  // head blocked, reserves
  q.submit(whole_nodes(2, 50));             // identical spec: cache skip
  q.submit(whole_nodes(5, 10));             // 5 > 4 nodes: rejected
  q.schedule();
  // A second pass at the same epoch replays the third job's blocked
  // allocate verdict from the cache (the first pass couldn't: the
  // reservation commit invalidated it mid-pass).
  q.schedule();
  ASSERT_TRUE(q.cancel(r1));                // reservation dropped
  ASSERT_TRUE(q.run_to_completion());
  const QueueStats& s = q.stats();
  // The scenario must actually have exercised the paths it claims to.
  EXPECT_GT(s.submitted, 0u);
  EXPECT_GT(s.started_immediately, 0u);
  EXPECT_GT(s.completed, 0u);
  EXPECT_GT(s.rejected, 0u);
  EXPECT_GT(s.events_fired, 0u);
  EXPECT_GT(s.heap_pops, 0u);
  EXPECT_GT(s.match_calls, 0u);
  EXPECT_GT(s.match_skipped, 0u);
  EXPECT_GT(s.reservations_made, 0u);
  EXPECT_GT(s.reservations_dropped, 0u);
  expect_lockstep(s);
}

TEST_F(StatsMirrorFixture, CacheInvalidationStaysInLockstep) {
  JobQueue q(*trav, QueuePolicy::fcfs);
  q.submit(whole_nodes(4, 100));
  q.submit(whole_nodes(1, 10));  // blocked; verdict cached
  q.schedule();
  q.schedule();  // replayed from the cache
  EXPECT_GT(q.stats().match_skipped, 0u);
  // The completion at t=100 releases spans (a traverser mutation), so the
  // next placement attempt drops the stale cache.
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_GT(q.stats().cache_invalidations, 0u);
  expect_lockstep(q.stats());
}

TEST_F(StatsMirrorFixture, EasyBackfillRunStaysInLockstep) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  for (int i = 0; i < 12; ++i) {
    q.submit(whole_nodes(1 + i % 4, 5 + i));
  }
  ASSERT_TRUE(q.run_to_completion());
  expect_lockstep(q.stats());
}

}  // namespace
}  // namespace fluxion::queue
