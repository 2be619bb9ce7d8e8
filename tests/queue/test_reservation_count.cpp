// The live reservation count: JobQueue keeps the number of jobs in state
// `reserved` as a member instead of rescanning every job on each pass.
// These tests drive every transition into and out of `reserved` under
// EASY, hybrid and conservative backfill with the traverser's audit mode
// on, where each schedule() pass recounts by scanning every job and raises
// util::internal_error on a mismatch. After every step the tests check
// that no internal error was raised, that the policy's reservation budget
// holds when counted from the outside, and that
// QueueStats::reserved == reservations_made - reservations_dropped.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "grug/grug.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "snapshot/snapshot.hpp"
#include "util/check.hpp"

namespace fluxion::queue {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

constexpr const char* kSystem =
    "filters node core\nfilter-at cluster\n"
    "cluster count=1\n  node count=4\n    core count=4\n";

jobspec::Jobspec whole_nodes(std::int64_t n, util::Duration d) {
  auto js = make({slot(n, {xres("node", 1, {res("core", 4)})})}, d);
  EXPECT_TRUE(js);
  return *js;
}

/// Jobs in state `reserved`, counted through the public API only.
std::size_t reserved_now(const JobQueue& q) {
  std::size_t n = 0;
  for (const JobId id : q.all_jobs()) {
    if (q.find(id)->state == JobState::reserved) ++n;
  }
  return n;
}

struct Config {
  QueuePolicy policy;
  std::size_t depth;
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << "policy=" << queue_policy_name(c.policy) << " depth=" << c.depth;
}

/// One machine (4 nodes x 4 cores) with the audit on.
struct World {
  World() : g(0, 1 << 20) {
    auto recipe = grug::parse(kSystem);
    EXPECT_TRUE(recipe);
    auto root = grug::build(g, *recipe);
    EXPECT_TRUE(root);
    trav = std::make_unique<traverser::Traverser>(g, *root, pol);
    trav->set_audit(true);
  }
  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

class ReservationCount : public ::testing::TestWithParam<Config> {
 protected:
  ReservationCount() : baseline_(util::internal_error_count()) {}

  std::unique_ptr<JobQueue> make_queue(traverser::Traverser& t) const {
    auto q = std::make_unique<JobQueue>(t, GetParam().policy);
    q->set_reservation_depth(GetParam().depth);
    return q;
  }

  std::size_t budget() const {
    return GetParam().policy == QueuePolicy::easy_backfill ? 1
                                                           : GetParam().depth;
  }

  void expect_books(const JobQueue& q) const {
    EXPECT_EQ(util::internal_error_count(), baseline_);
    EXPECT_LE(reserved_now(q), budget());
    const QueueStats& s = q.stats();
    EXPECT_EQ(s.reserved, s.reservations_made - s.reservations_dropped);
  }

  /// One schedule pass (which runs the audit recount), then the books.
  void pass(JobQueue& q) const {
    q.schedule();
    expect_books(q);
  }

  /// Schedule and fire events until the queue is idle, checking the books
  /// after every pass and every event.
  void drain(JobQueue& q) const {
    while (true) {
      pass(q);
      const TimePoint t = q.next_event();
      if (t == util::kMaxTime) break;
      ASSERT_TRUE(q.advance_to(t));
      expect_books(q);
    }
  }

  static graph::VertexId first_node(const World& w, const JobQueue& q,
                                    JobId id) {
    for (const auto& ru : q.find(id)->resources) {
      if (w.g.type_name(w.g.vertex(ru.vertex).type) == std::string("node")) {
        return ru.vertex;
      }
    }
    ADD_FAILURE() << "job " << id << " holds no node";
    return graph::kInvalidVertex;
  }

  std::uint64_t baseline_;
};

TEST_P(ReservationCount, ReserveAndStart) {
  World w;
  auto q = make_queue(*w.trav);
  q->submit(whole_nodes(4, 100));  // fills the machine
  const JobId b = q->submit(whole_nodes(4, 50));
  const JobId c = q->submit(whole_nodes(4, 50));
  q->submit(whole_nodes(4, 50));
  pass(*q);
  EXPECT_EQ(q->find(b)->state, JobState::reserved);
  EXPECT_EQ(reserved_now(*q), budget());
  EXPECT_EQ(q->find(c)->state, budget() > 1 ? JobState::reserved
                                             : JobState::pending);
  drain(*q);
  EXPECT_EQ(q->stats().completed, 4u);
  EXPECT_EQ(q->stats().reserved, q->stats().reservations_made);
}

TEST_P(ReservationCount, HoldReleaseAndCancel) {
  World w;
  auto q = make_queue(*w.trav);
  q->submit(whole_nodes(4, 100));
  const JobId b = q->submit(whole_nodes(4, 50));
  const JobId c = q->submit(whole_nodes(4, 50));
  pass(*q);
  ASSERT_EQ(q->find(b)->state, JobState::reserved);

  ASSERT_TRUE(q->hold(b));
  EXPECT_EQ(q->find(b)->state, JobState::held);
  pass(*q);
  EXPECT_EQ(q->find(c)->state, JobState::reserved);  // took b's slot

  ASSERT_TRUE(q->release(b));
  pass(*q);

  ASSERT_TRUE(q->cancel(c));
  expect_books(*q);
  pass(*q);
  EXPECT_EQ(q->find(b)->state, JobState::reserved);
  drain(*q);
  EXPECT_EQ(q->stats().completed, 2u);
}

TEST_P(ReservationCount, DependencyCascade) {
  World w;
  auto q = make_queue(*w.trav);
  q->submit(whole_nodes(4, 100));
  const JobId b = q->submit(whole_nodes(4, 50));
  const JobId d = q->submit(whole_nodes(1, 10), 0, {b});
  const JobId e = q->submit(whole_nodes(1, 10), 0, {d});
  pass(*q);
  ASSERT_EQ(q->find(b)->state, JobState::reserved);
  ASSERT_TRUE(q->cancel(b));
  expect_books(*q);
  EXPECT_EQ(q->find(d)->state, JobState::rejected);
  EXPECT_EQ(q->find(e)->state, JobState::rejected);
  drain(*q);
}

TEST_P(ReservationCount, EvictRequeueAndKill) {
  for (const EvictPolicy policy : {EvictPolicy::requeue, EvictPolicy::kill}) {
    World w;
    auto q = make_queue(*w.trav);
    std::vector<JobId> running;
    for (int i = 0; i < 4; ++i) {
      running.push_back(q->submit(whole_nodes(1, 100)));
    }
    const JobId b = q->submit(whole_nodes(4, 50));
    const JobId e = q->submit(whole_nodes(1, 10), 0, {running[0]});
    pass(*q);
    ASSERT_EQ(q->find(b)->state, JobState::reserved);

    const auto r = q->evict_on(first_node(w, *q, running[0]), policy);
    ASSERT_TRUE(r.released) << r.released.error().message;
    EXPECT_EQ(q->find(b)->state, JobState::pending);  // re-planned
    if (policy == EvictPolicy::kill) {
      EXPECT_EQ(r.killed, std::vector<JobId>{running[0]});
      EXPECT_EQ(q->find(e)->state, JobState::rejected);  // cascade
    } else {
      EXPECT_EQ(r.requeued, std::vector<JobId>{running[0]});
      EXPECT_EQ(q->find(running[0])->state, JobState::pending);
    }
    expect_books(*q);
    drain(*q);
  }
}

TEST_P(ReservationCount, ReplanReserved) {
  World w;
  auto q = make_queue(*w.trav);
  q->submit(whole_nodes(4, 100));
  q->submit(whole_nodes(4, 50));
  q->submit(whole_nodes(4, 50));
  pass(*q);
  const std::size_t before = reserved_now(*q);
  ASSERT_GT(before, 0u);
  EXPECT_EQ(q->replan_reserved().size(), before);
  EXPECT_EQ(reserved_now(*q), 0u);
  expect_books(*q);
  pass(*q);
  EXPECT_EQ(reserved_now(*q), before);
  drain(*q);
}

TEST_P(ReservationCount, SnapshotMidReservation) {
  World w;
  auto q = make_queue(*w.trav);
  q->submit(whole_nodes(4, 100));
  q->submit(whole_nodes(4, 50));
  q->submit(whole_nodes(4, 50));
  q->submit(whole_nodes(2, 30));
  pass(*q);
  ASSERT_TRUE(q->advance_to(60));
  ASSERT_GT(reserved_now(*q), 0u);

  auto eng =
      snapshot::load_engine(snapshot::save_engine(w.g, *w.trav, q.get()));
  ASSERT_TRUE(eng) << eng.error().message;
  ASSERT_NE((*eng)->queue, nullptr);
  (*eng)->traverser->set_audit(true);
  JobQueue& rq = *(*eng)->queue;
  EXPECT_EQ(reserved_now(rq), reserved_now(*q));

  drain(*q);
  drain(rq);
  ASSERT_EQ(rq.all_jobs(), q->all_jobs());
  for (const JobId id : q->all_jobs()) {
    EXPECT_EQ(rq.find(id)->state, q->find(id)->state) << "job " << id;
    EXPECT_EQ(rq.find(id)->start_time, q->find(id)->start_time) << "job " << id;
    EXPECT_EQ(rq.find(id)->end_time, q->find(id)->end_time) << "job " << id;
  }
}

/// A batch that exercises the budget: one job fills three nodes, the next
/// needs all four (blocked: reserves), the rest backfill or wait.
std::vector<JobId> submit_probe_batch(JobQueue& q) {
  std::vector<JobId> ids;
  ids.push_back(q.submit(whole_nodes(3, 100)));
  ids.push_back(q.submit(whole_nodes(4, 50)));
  ids.push_back(q.submit(whole_nodes(4, 40)));
  ids.push_back(q.submit(whole_nodes(1, 50)));
  ids.push_back(q.submit(whole_nodes(1, 200)));
  ids.push_back(q.submit(whole_nodes(2, 20)));
  return ids;
}

// A long history must not leave anything behind that changes a later
// pass: after ~2000 jobs have come and gone, the next pass places a batch
// exactly as a fresh queue on an idle machine does.
TEST_P(ReservationCount, LongHistoryLeavesLaterPassesUnchanged) {
  World w;
  auto q = make_queue(*w.trav);
  for (int wave = 0; wave < 250; ++wave) {
    q->submit(whole_nodes(2, 30));
    q->submit(whole_nodes(4, 20));  // blocked behind the first: reserves
    for (int i = 0; i < 6; ++i) q->submit(whole_nodes(1, 5 + i));
    const auto done = q->run_to_completion();
    ASSERT_TRUE(done) << done.error().message;
  }
  EXPECT_EQ(q->stats().completed, 2000u);
  EXPECT_GT(q->stats().reservations_made, 0u);
  expect_books(*q);
  EXPECT_EQ(reserved_now(*q), 0u);

  World fresh_world;
  auto fresh = make_queue(*fresh_world.trav);
  const TimePoint offset = q->now();
  const auto got = submit_probe_batch(*q);
  const auto want = submit_probe_batch(*fresh);
  pass(*q);
  pass(*fresh);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Job& a = *q->find(got[i]);
    const Job& b = *fresh->find(want[i]);
    EXPECT_EQ(a.state, b.state) << "batch job " << i;
    if (b.state == JobState::pending) continue;
    EXPECT_EQ(a.start_time - offset, b.start_time) << "batch job " << i;
    EXPECT_EQ(a.end_time - offset, b.end_time) << "batch job " << i;
    ASSERT_EQ(a.resources.size(), b.resources.size()) << "batch job " << i;
    for (std::size_t k = 0; k < a.resources.size(); ++k) {
      EXPECT_EQ(a.resources[k].vertex, b.resources[k].vertex);
      EXPECT_EQ(a.resources[k].units, b.resources[k].units);
    }
  }
  EXPECT_GT(reserved_now(*fresh), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReservationCount,
    ::testing::Values(Config{QueuePolicy::easy_backfill, 0},
                      Config{QueuePolicy::hybrid_backfill, 2},
                      Config{QueuePolicy::conservative_backfill, 2}));

// QueueStats::reserved is decremented on every release of a reservation
// before its start, including cancel and the dependency cascade, so it
// always equals reservations_made - reservations_dropped.
TEST(ReservedStat, CancelAndCascadeKeepTheIdentity) {
  World w;
  JobQueue q(*w.trav, QueuePolicy::conservative_backfill);
  q.submit(whole_nodes(4, 100));
  const JobId b = q.submit(whole_nodes(4, 50));
  const JobId d = q.submit(whole_nodes(1, 10), 0, {b});  // reserved after b
  const JobId c = q.submit(whole_nodes(2, 10));
  q.schedule();
  ASSERT_EQ(q.find(b)->state, JobState::reserved);
  ASSERT_EQ(q.find(d)->state, JobState::reserved);
  ASSERT_EQ(q.find(c)->state, JobState::reserved);
  EXPECT_EQ(q.stats().reserved, 3u);

  ASSERT_TRUE(q.cancel(c));  // a reserved job
  EXPECT_EQ(q.stats().reserved, 2u);
  ASSERT_TRUE(q.cancel(b));  // a reserved job whose reserved dependent cascades
  EXPECT_EQ(q.find(d)->state, JobState::rejected);
  const QueueStats& s = q.stats();
  EXPECT_EQ(s.reservations_made, 3u);
  EXPECT_EQ(s.reservations_dropped, 3u);
  EXPECT_EQ(s.reserved, 0u);
  EXPECT_EQ(s.reserved, s.reservations_made - s.reservations_dropped);
}

}  // namespace
}  // namespace fluxion::queue
