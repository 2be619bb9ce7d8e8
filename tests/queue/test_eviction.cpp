// Dynamic-resource eviction through the queue: running jobs intersecting
// a downed or shrunk subtree are requeued or killed per policy, reserved
// jobs are re-planned, and the planners conserve spans (everything the
// evicted allocations posted comes back out) — verified against the obs
// counter oracle.
#include <gtest/gtest.h>

#include "dynamic/dynamic.hpp"
#include "grug/grug.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "util/check.hpp"

namespace fluxion::queue {
namespace {

using dynamic::DynamicResources;
using graph::ResourceStatus;
using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

jobspec::Jobspec whole_nodes(std::int64_t n, util::Duration d) {
  auto js = make({slot(n, {xres("node", 1, {res("core", 4)})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

class EvictionFixture : public ::testing::Test {
 protected:
  EvictionFixture() : g(0, 1 << 20) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster rack\n"
        "cluster count=1\n  rack count=2\n    node count=2\n"
        "      core count=4\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<traverser::Traverser>(g, root, pol);
    trav->set_audit(true);
  }

  graph::VertexId node_of(JobId id, const JobQueue& q) {
    const Job* job = q.find(id);
    EXPECT_NE(job, nullptr);
    for (const auto& ru : job->resources) {
      if (g.type_name(g.vertex(ru.vertex).type) == std::string("node")) {
        return ru.vertex;
      }
    }
    ADD_FAILURE() << "job " << id << " holds no node";
    return graph::kInvalidVertex;
  }

  graph::ResourceGraph g;
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

TEST_F(EvictionFixture, RequeuedJobRunsElsewhere) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(1, 100));
  const JobId b = q.submit(whole_nodes(1, 100));
  q.schedule();
  ASSERT_EQ(q.find(a)->state, JobState::running);
  const auto victim_node = node_of(a, q);

  auto r = q.evict_on(victim_node, EvictPolicy::requeue);
  ASSERT_TRUE(r.released) << r.released.error().message;
  ASSERT_EQ(r.requeued.size(), 1u);
  EXPECT_EQ(r.requeued[0], a);
  EXPECT_TRUE(r.killed.empty());
  EXPECT_EQ(q.find(a)->state, JobState::pending);
  EXPECT_EQ(q.find(b)->state, JobState::running);  // untouched

  q.schedule();  // re-place; victim node is still up, may be reused
  EXPECT_NE(q.find(a)->state, JobState::pending);
  auto end = q.run_to_completion();
  ASSERT_TRUE(end);
  EXPECT_EQ(q.find(a)->state, JobState::completed);
  EXPECT_EQ(q.stats().completed, 2u);
}

TEST_F(EvictionFixture, KillPolicyCancelsForGood) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(1, 100));
  q.schedule();
  const auto victim_node = node_of(a, q);
  auto r = q.evict_on(victim_node, EvictPolicy::kill);
  ASSERT_TRUE(r.released);
  ASSERT_EQ(r.killed.size(), 1u);
  EXPECT_EQ(q.find(a)->state, JobState::canceled);
  q.run_to_completion();
  EXPECT_EQ(q.find(a)->state, JobState::canceled);
}

TEST_F(EvictionFixture, KilledJobsDependentsAreRejected) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(1, 100));
  const JobId child = q.submit(whole_nodes(1, 10), 0, {a});
  q.schedule();
  auto r = q.evict_on(node_of(a, q), EvictPolicy::kill);
  ASSERT_TRUE(r.released);
  EXPECT_EQ(q.find(a)->state, JobState::canceled);
  EXPECT_EQ(q.find(child)->state, JobState::rejected);
}

TEST_F(EvictionFixture, ReservedJobIsReplannedWhenItsResourcesGoDown) {
  // Satellite oracle: a reserved-but-not-started job whose planned
  // resources go down must get a fresh plan, with planner span
  // conservation across the whole evict/replan cycle.
  obs::set_enabled(true);
  obs::monitor().reset();
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  DynamicResources dyn(g, *trav, &q);

  const JobId running = q.submit(whole_nodes(4, 100));  // whole machine
  const JobId waiting = q.submit(whole_nodes(4, 50));   // reserved at t=100
  q.schedule();
  ASSERT_EQ(q.find(running)->state, JobState::running);
  ASSERT_EQ(q.find(waiting)->state, JobState::reserved);
  ASSERT_EQ(q.find(waiting)->start_time, 100);

  // Down one rack: the running job is requeued, the reservation (which
  // spans all four nodes) is re-planned — both must lose their spans.
  const auto rack0 = g.find_by_path("/cluster0/rack0");
  ASSERT_TRUE(rack0.has_value());
  auto change = dyn.set_status(*rack0, ResourceStatus::down,
                               EvictPolicy::requeue);
  ASSERT_TRUE(change) << change.error().message;
  ASSERT_EQ(change->evicted.size(), 1u);
  EXPECT_EQ(change->evicted[0], running);
  ASSERT_EQ(change->replanned.size(), 1u);
  EXPECT_EQ(change->replanned[0], waiting);
  EXPECT_EQ(q.find(running)->state, JobState::pending);
  EXPECT_EQ(q.find(waiting)->state, JobState::pending);

  // Conservation: every span the two placements added has been removed.
  const auto& m = obs::monitor();
  EXPECT_EQ(m.planner_span_adds.value(), m.planner_span_removes.value());
  EXPECT_EQ(m.multi_span_adds.value(), m.multi_span_removes.value());
  EXPECT_EQ(m.dyn_replanned.value(), 1u);
  EXPECT_EQ(m.dyn_evicted_requeued.value(), 1u);

  // With half the machine down, 4-node jobs can never run again: both
  // must end rejected rather than silently planned on downed nodes.
  q.schedule();
  EXPECT_EQ(q.find(running)->state, JobState::rejected);
  EXPECT_EQ(q.find(waiting)->state, JobState::rejected);
  EXPECT_TRUE(trav->audit());
  obs::set_enabled(false);
}

TEST_F(EvictionFixture, ReplannedReservationLandsOnUpNodes) {
  obs::set_enabled(true);
  obs::monitor().reset();
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  DynamicResources dyn(g, *trav, &q);

  const JobId running = q.submit(whole_nodes(2, 100));
  const JobId waiting = q.submit(whole_nodes(3, 50));  // must wait
  q.schedule();
  ASSERT_EQ(q.find(running)->state, JobState::running);
  ASSERT_EQ(q.find(waiting)->state, JobState::reserved);

  // Drain carries no eviction, but downing the node under the running
  // job requeues it and re-plans the reservation.
  auto change = dyn.set_status(node_of(running, q), ResourceStatus::down,
                               EvictPolicy::requeue);
  ASSERT_TRUE(change) << change.error().message;
  q.schedule();
  auto end = q.run_to_completion();
  ASSERT_TRUE(end) << end.error().message;
  // 3 nodes remain; both jobs still fit (2-node + 3-node serialised).
  EXPECT_EQ(q.find(running)->state, JobState::completed);
  EXPECT_EQ(q.find(waiting)->state, JobState::completed);
  for (const auto& ru : q.find(waiting)->resources) {
    EXPECT_EQ(g.vertex(ru.vertex).status, ResourceStatus::up);
  }
  EXPECT_TRUE(trav->audit());
  obs::set_enabled(false);
}

TEST_F(EvictionFixture, EvictOnIdleSubtreeIsANoOp) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(1, 100));
  q.schedule();
  const auto rack1 = g.find_by_path("/cluster0/rack1");
  ASSERT_TRUE(rack1.has_value());
  // LowId placed the job on rack0; rack1 is idle.
  auto r = q.evict_on(*rack1, EvictPolicy::requeue);
  ASSERT_TRUE(r.released);
  EXPECT_TRUE(r.requeued.empty());
  EXPECT_TRUE(r.killed.empty());
  EXPECT_TRUE(r.replanned.empty());
  EXPECT_EQ(q.find(a)->state, JobState::running);
}

TEST_F(EvictionFixture, RequeuedJobsReservedDependentsAreReplanned) {
  // Conservative backfill: A holds two nodes for [0, 100) and its
  // dependent E is reserved for [100, 110). Requeuing A at t=50 leaves A
  // without a known end, so E must lose its reservation and wait for A's
  // new run instead of starting at t=100.
  const std::uint64_t internal_before = util::internal_error_count();
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  const JobId a = q.submit(whole_nodes(2, 100));
  const JobId e = q.submit(whole_nodes(1, 10), 0, {a});
  q.schedule();
  ASSERT_EQ(q.find(a)->state, JobState::running);
  ASSERT_EQ(q.find(e)->state, JobState::reserved);
  ASSERT_EQ(q.find(e)->start_time, 100);
  graph::VertexId second = graph::kInvalidVertex;
  for (const auto& ru : q.find(a)->resources) {
    if (g.type_name(g.vertex(ru.vertex).type) == std::string("node")) {
      second = ru.vertex;  // resources are in vertex order: the last node
    }
  }
  ASSERT_NE(second, graph::kInvalidVertex);
  ASSERT_TRUE(q.advance_to(50));

  auto r = q.evict_on(second, EvictPolicy::requeue);
  ASSERT_TRUE(r.released) << r.released.error().message;
  ASSERT_EQ(r.requeued, std::vector<JobId>{a});
  ASSERT_EQ(r.replanned, std::vector<JobId>{e});
  EXPECT_EQ(q.find(a)->state, JobState::pending);
  EXPECT_EQ(q.find(e)->state, JobState::pending);
  EXPECT_EQ(trav->find_job(e), nullptr);  // the reservation is gone
  EXPECT_EQ(q.stats().reserved, 0u);
  EXPECT_EQ(q.stats().reserved,
            q.stats().reservations_made - q.stats().reservations_dropped);

  q.schedule();
  ASSERT_EQ(q.find(a)->state, JobState::running);
  EXPECT_EQ(q.find(a)->start_time, 50);
  ASSERT_EQ(q.find(e)->state, JobState::reserved);
  EXPECT_EQ(q.find(e)->start_time, q.find(a)->end_time);
  EXPECT_EQ(q.stats().reserved, 1u);
  EXPECT_EQ(q.stats().reserved,
            q.stats().reservations_made - q.stats().reservations_dropped);
  ASSERT_TRUE(q.run_to_completion());
  EXPECT_EQ(q.find(e)->state, JobState::completed);
  EXPECT_GE(q.find(e)->start_time, q.find(a)->end_time);
  EXPECT_EQ(q.stats().reserved,
            q.stats().reservations_made - q.stats().reservations_dropped);
  EXPECT_EQ(util::internal_error_count(), internal_before);
}

}  // namespace
}  // namespace fluxion::queue
