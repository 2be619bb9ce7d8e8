// Event-heap dispatch and satisfiability-cache behaviour: overdue
// reservations fire at now (not now + 1), dispatch cost scales with
// events (not events x jobs), cache hits skip traversals without ever
// changing an outcome, and every mutation class invalidates the cache.
#include <memory>

#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "sim/workload.hpp"

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

class QueueEventsFixture : public ::testing::Test {
 protected:
  QueueEventsFixture() : g(0, 1 << 20) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster\n"
        "cluster count=1\n  node count=4\n    core count=4\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
  }
  graph::VertexId node_vertex(std::size_t i) {
    const auto t = g.find_type("node");
    EXPECT_TRUE(t);
    return g.vertices_of_type(*t).at(i);
  }
  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  graph::VertexId root = graph::kInvalidVertex;
  std::unique_ptr<traverser::Traverser> trav;
};

// Regression (the old next_event returned now + 1 for a reservation whose
// start was already due, spinning callers one tick at a time): after an
// eviction re-plan, a reservation rewound into the past fires at now.
TEST_F(QueueEventsFixture, OverdueReservationFiresAtNow) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(4, 100));
  const JobId b = q.submit(whole_nodes(4, 100));
  q.schedule();
  EXPECT_EQ(q.find(a)->state, JobState::running);
  EXPECT_EQ(q.find(b)->state, JobState::reserved);
  // Eviction re-plan: both lose their spans, the next pass re-places
  // them (a back to running, b to a fresh reservation).
  const auto ev = q.evict_on(node_vertex(0), EvictPolicy::requeue);
  EXPECT_EQ(ev.requeued.size(), 1u);
  EXPECT_EQ(ev.replanned.size(), 1u);
  q.schedule();
  EXPECT_EQ(q.find(a)->state, JobState::running);
  ASSERT_EQ(q.find(b)->state, JobState::reserved);
  ASSERT_TRUE(q.advance_to(40));
  // Force the un-reachable-organically state: b's start is already due.
  q.test_rewind_reservation(b, 10);
  EXPECT_EQ(q.find(b)->start_time, 10);
  EXPECT_EQ(q.next_event(), 40) << "overdue start must fire at now";
  ASSERT_TRUE(q.advance_to(40));
  EXPECT_EQ(q.find(b)->state, JobState::running);
  EXPECT_EQ(q.find(b)->start_time, 40) << "overdue start fires at now";
}

// Starts and completions interleave strictly by event time; a reserved
// job whose start falls between two completions starts exactly at its
// reserved time even when the clock jumps past it in one advance.
TEST_F(QueueEventsFixture, EventsFireInTimeOrderAcrossOneAdvance) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(4, 50));
  const JobId b = q.submit(whole_nodes(4, 30));   // reserved at 50
  const JobId c = q.submit(whole_nodes(4, 20));   // reserved at 80
  q.schedule();
  ASSERT_EQ(q.find(b)->start_time, 50);
  ASSERT_EQ(q.find(c)->start_time, 80);
  // One jump over every event: a completes at 50, b runs [50, 80),
  // c runs [80, 100).
  ASSERT_TRUE(q.advance_to(1000));
  EXPECT_EQ(q.find(a)->state, JobState::completed);
  EXPECT_EQ(q.find(b)->state, JobState::completed);
  EXPECT_EQ(q.find(c)->state, JobState::completed);
  EXPECT_EQ(q.find(b)->start_time, 50);
  EXPECT_EQ(q.find(b)->end_time, 80);
  EXPECT_EQ(q.find(c)->start_time, 80);
  EXPECT_EQ(q.find(c)->end_time, 100);
  // 3 starts + 3 completions were dispatched, with no per-job rescans:
  // b's and c's start events plus all three completions came off the
  // heap (a started inside try_place, which fires no start event).
  EXPECT_EQ(q.stats().events_fired, 5u);
  EXPECT_LE(q.stats().heap_pops, 10u);
}

// The acceptance-criteria scaling proof: on a 1k-job workload the
// obs-counted dispatch work (jobs scanned) stays within a log-factor of
// the events fired — the pre-heap implementation rescanned every job per
// event, which would put jobs_scanned near events * 1000.
TEST_F(QueueEventsFixture, HeapDispatchScansLogNotLinearPerEvent) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::monitor().reset();
  {
    JobQueue q(*trav, QueuePolicy::fcfs);
    sim::TraceConfig cfg;
    cfg.job_count = 1000;
    cfg.max_nodes = 4;
    cfg.min_duration = 60;
    cfg.max_duration = 3600;
    cfg.duration_quantum = 600;
    util::Rng rng(7);
    for (const auto& tj : sim::generate_trace(cfg, rng)) {
      auto js = sim::trace_jobspec(tj, 4);
      ASSERT_TRUE(js);
      q.submit(*js);
    }
    ASSERT_TRUE(q.run_to_completion());
    EXPECT_EQ(q.stats().completed, 1000u);
  }
  const auto& m = obs::monitor();
  // The queue is gone: its counts were retired into the monitor.
  const std::uint64_t events = m.value("queue.events_fired");
  const std::uint64_t scanned = m.value("queue.jobs_scanned");
  EXPECT_GE(events, 1000u);  // at least one completion per job
  // O(events * log n), nowhere near O(events * n): log2(1000) ~ 10.
  EXPECT_LE(scanned, events * 10);
  obs::monitor().reset();
  obs::set_enabled(was_enabled);
}

// Two pending jobs with the same request signature: the first failed
// match blocks the signature, the second is skipped without a traversal
// and with an identical outcome.
TEST_F(QueueEventsFixture, CacheSkipsRepeatedBlockedSignatures) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  const JobId a = q.submit(whole_nodes(4, 100));
  q.schedule();
  EXPECT_EQ(q.find(a)->state, JobState::running);
  const JobId head = q.submit(whole_nodes(4, 100));
  q.schedule();  // head blocked: gets the one EASY reservation
  ASSERT_EQ(q.find(head)->state, JobState::reserved);
  const std::uint64_t calls_before = q.stats().match_calls;
  const JobId c = q.submit(whole_nodes(2, 50));
  const JobId d = q.submit(whole_nodes(2, 50));
  q.schedule();
  EXPECT_EQ(q.find(c)->state, JobState::pending);
  EXPECT_EQ(q.find(d)->state, JobState::pending);
  EXPECT_EQ(q.stats().match_calls, calls_before + 1)
      << "d's match must be skipped: same signature, same anchor";
  EXPECT_EQ(q.stats().match_skipped, 1u);
  // A completion invalidates the cache (the freed resources could make
  // any blocked signature feasible) and both jobs run.
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_GE(q.stats().cache_invalidations, 1u);
  EXPECT_EQ(q.find(c)->state, JobState::completed);
  EXPECT_EQ(q.find(d)->state, JobState::completed);
}

// Unsatisfiable requests are cached too: the second impossible job is
// rejected without any traversal (its plain-allocate probe hits the
// cached resource_busy, its reserve probe the cached unsatisfiable).
TEST_F(QueueEventsFixture, CacheSkipsRepeatedUnsatisfiable) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  const JobId a = q.submit(whole_nodes(5, 10));  // only 4 nodes exist
  const JobId b = q.submit(whole_nodes(5, 10));
  q.schedule();
  EXPECT_EQ(q.find(a)->state, JobState::rejected);
  EXPECT_EQ(q.find(b)->state, JobState::rejected);
  EXPECT_EQ(q.stats().match_skipped, 2u);
  EXPECT_EQ(q.stats().rejected, 2u);
}

// With the cache off every schedule pass re-matches; outcomes are the
// same, only the match counts differ.
TEST_F(QueueEventsFixture, CacheOffNeverSkips) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  q.set_match_cache(false);
  EXPECT_FALSE(q.match_cache());
  q.submit(whole_nodes(4, 100));
  q.submit(whole_nodes(2, 50));
  q.submit(whole_nodes(2, 50));
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_EQ(q.stats().match_skipped, 0u);
  EXPECT_EQ(q.stats().completed, 3u);
}

// Regression: the blocked-signature cache key must include the active
// traversal mode, match policy and reservation depth. Before the fix it
// was only the request signature + op + anchor, so a verdict cached under
// scored traversal was replayed after switching to first-match (or after
// changing the reservation depth) even though those knobs change what a
// match can return.
TEST_F(QueueEventsFixture, CacheKeyIncludesTraversalModeAndDepth) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  const JobId a = q.submit(whole_nodes(4, 100));
  q.schedule();
  EXPECT_EQ(q.find(a)->state, JobState::running);
  const JobId head = q.submit(whole_nodes(4, 100));
  q.schedule();  // head blocked: takes the one EASY reservation
  ASSERT_EQ(q.find(head)->state, JobState::reserved);
  const JobId c = q.submit(whole_nodes(2, 50));
  q.schedule();  // c's failure is now cached under the scored-mode key
  ASSERT_EQ(q.find(c)->state, JobState::pending);
  const std::uint64_t calls = q.stats().match_calls;
  const std::uint64_t skipped = q.stats().match_skipped;
  q.schedule();  // same knobs: cache hit, no traversal
  EXPECT_EQ(q.stats().match_calls, calls);
  EXPECT_EQ(q.stats().match_skipped, skipped + 1);
  // Switching the traversal mode changes the question being asked — the
  // scored-mode verdict must not answer it.
  q.set_traversal_mode(traverser::TraversalMode::first_match);
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, calls + 1)
      << "first-match must re-match, not replay the scored verdict";
  EXPECT_EQ(q.stats().match_skipped, skipped + 1);
  EXPECT_EQ(q.find(c)->state, JobState::pending) << "outcome is the same";
  // So does the reservation depth (it changes how many reservations the
  // pass may plant around the blocked job).
  const std::uint64_t fm_calls = q.stats().match_calls;
  q.set_reservation_depth(3);
  q.schedule();
  EXPECT_EQ(q.stats().match_calls, fm_calls + 1)
      << "a depth change must invalidate prior verdicts";
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_EQ(q.find(c)->state, JobState::completed);
}

// Cancelling a pending job parked behind a blocked head moves no planner
// state; the job leaves the queue at once and the rest still runs.
TEST_F(QueueEventsFixture, CancelWhileParkedBehindBlockedHead) {
  JobQueue q(*trav, QueuePolicy::fcfs);
  const JobId a = q.submit(whole_nodes(4, 100));
  q.schedule();
  EXPECT_EQ(q.find(a)->state, JobState::running);
  const JobId b = q.submit(whole_nodes(4, 100));
  const JobId c = q.submit(whole_nodes(2, 50));
  q.schedule();  // head b blocked; c waits behind it
  ASSERT_EQ(q.find(b)->state, JobState::pending);
  ASSERT_EQ(q.find(c)->state, JobState::pending);
  ASSERT_TRUE(q.cancel(c));
  EXPECT_EQ(q.find(c)->state, JobState::canceled);
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_EQ(q.find(b)->state, JobState::completed);
}

// Held and re-released reservations leave only stale heap entries
// behind; nothing fires for a held job.
TEST_F(QueueEventsFixture, HoldInvalidatesPendingStartEvent) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  q.submit(whole_nodes(4, 100));
  const JobId b = q.submit(whole_nodes(4, 100));
  q.schedule();
  ASSERT_EQ(q.find(b)->state, JobState::reserved);
  ASSERT_TRUE(q.hold(b));
  ASSERT_TRUE(q.advance_to(200));
  EXPECT_EQ(q.find(b)->state, JobState::held);
  EXPECT_EQ(q.next_event(), util::kMaxTime);
  ASSERT_TRUE(q.release(b));
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_EQ(q.find(b)->state, JobState::completed);
}

}  // namespace
}  // namespace fluxion::queue
