// Snapshot subsystem unit tests: codec primitives, corrupt-input
// rejection, engine round-trips, replica/writer agreement, and the
// mutation-epoch regression (failed cancel/shrink/extend must not
// invalidate caches). The end-to-end replay differential lives in
// tests/integration/test_snapshot_differential.cpp.
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "grug/grug.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/replica.hpp"
#include "snapshot_v1.inc"

namespace fluxion::snapshot {
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

class SnapshotFixture : public ::testing::Test {
 protected:
  SnapshotFixture() : g(0, 1 << 20) {
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster\n"
        "cluster count=1\n  node count=4\n    core count=4\n");
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    trav = std::make_unique<traverser::Traverser>(g, *r, pol);
  }
  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

// --- codec ----------------------------------------------------------------

TEST(SnapshotCodec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.uv(0);
  w.uv(127);
  w.uv(128);
  w.uv(0xffffffffffffffffULL);
  w.iv(0);
  w.iv(-1);
  w.iv(1);
  w.iv(INT64_MIN);
  w.iv(INT64_MAX);
  w.f64(0.0);
  w.f64(-3.25);
  w.f64(1e300);
  w.str("");
  w.str("hello snapshot");

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.uv(), 0u);
  EXPECT_EQ(r.uv(), 127u);
  EXPECT_EQ(r.uv(), 128u);
  EXPECT_EQ(r.uv(), 0xffffffffffffffffULL);
  EXPECT_EQ(r.iv(), 0);
  EXPECT_EQ(r.iv(), -1);
  EXPECT_EQ(r.iv(), 1);
  EXPECT_EQ(r.iv(), INT64_MIN);
  EXPECT_EQ(r.iv(), INT64_MAX);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.f64(), -3.25);
  EXPECT_EQ(r.f64(), 1e300);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotCodec, IdRunsCompressDenseRanges) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 1024; ++i) ids.push_back(i);
  ids.push_back(5000);
  Writer w;
  w.id_runs(ids);
  // One dense run plus a singleton: a handful of varints, not a thousand.
  EXPECT_LT(w.bytes().size(), 16u);
  Reader r(w.bytes());
  // The decoded set legitimately dwarfs the encoded bytes; only the
  // caller's domain bound (here: the id universe) limits expansion.
  EXPECT_EQ(r.id_runs(6000), ids);
  EXPECT_FALSE(r.failed());

  // The same bytes against a too-small bound are refused — the
  // allocation-bomb guard.
  Reader tight(w.bytes());
  EXPECT_TRUE(tight.id_runs(100).empty());
  EXPECT_TRUE(tight.failed());
}

TEST(SnapshotCodec, ReaderFailsStickyOnTruncation) {
  Writer w;
  w.uv(300);
  w.str("abcdef");
  const std::string full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(std::string_view(full).substr(0, cut));
    (void)r.uv();
    (void)r.str();
    EXPECT_TRUE(r.failed()) << "cut=" << cut;
    // The flag is sticky: later reads never clear it, so one check at
    // the end of a section catches any earlier truncation.
    (void)r.uv();
    (void)r.u8();
    EXPECT_TRUE(r.failed()) << "cut=" << cut;
  }
}

// --- corrupt input --------------------------------------------------------

TEST_F(SnapshotFixture, LoadRejectsCorruptInput) {
  EXPECT_FALSE(EngineSnapshot::load(""));
  EXPECT_FALSE(EngineSnapshot::load("not a snapshot at all"));

  auto m = trav->match(whole_nodes(2, 100), traverser::MatchOp::allocate,
                       0, 1);
  ASSERT_TRUE(m);
  const std::string good = EngineSnapshot::save(g, *trav, nullptr);
  ASSERT_TRUE(EngineSnapshot::load(good));

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(EngineSnapshot::load(bad));

  // Future version is refused, not misread.
  bad = good;
  bad[4] = static_cast<char>(kSnapshotVersion + 1);
  EXPECT_FALSE(EngineSnapshot::load(bad));

  // Every truncation fails cleanly (never crashes, never half-loads).
  for (std::size_t cut = 0; cut < good.size(); cut += 7) {
    EXPECT_FALSE(EngineSnapshot::load(std::string_view(good).substr(0, cut)))
        << "cut=" << cut;
  }
}

/// Forest oracle over the public API: a walk down containment_children
/// from the live parentless vertices reaches every live vertex exactly
/// once, from its containment parent, within kMaxContainmentDepth edges,
/// and each path is its parent's path plus "/" + its name.
bool is_containment_forest(const graph::ResourceGraph& g) {
  std::vector<int> seen(g.vertex_count(), 0);
  std::vector<std::pair<graph::VertexId, std::size_t>> stack;
  std::size_t live = 0;
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    const graph::Vertex& vx = g.vertex(v);
    if (!vx.alive) continue;
    ++live;
    if (vx.containment_parent != graph::kInvalidVertex) continue;
    if (vx.path != "/" + vx.name) return false;
    stack.emplace_back(v, 0);
  }
  std::size_t reached = 0;
  while (!stack.empty()) {
    const auto [v, depth] = stack.back();
    stack.pop_back();
    if (seen[v]++ != 0 || depth > graph::kMaxContainmentDepth) return false;
    ++reached;
    for (graph::VertexId c : g.containment_children(v)) {
      const graph::Vertex& cx = g.vertex(c);
      if (cx.containment_parent != v ||
          cx.path != g.vertex(v).path + "/" + cx.name) {
        return false;
      }
      stack.emplace_back(c, depth + 1);
    }
  }
  return reached == live;
}

// Every single-byte corruption (each byte set to 0x00 and to 0x7f) of a
// one-job snapshot either fails to load or yields an engine whose
// containment is a forest, whose validate() returns, and which can match
// and cancel. Unchecked parents and `contains` edges used to read out of
// bounds in load and validate(), or send validate() round a cycle.
class SnapshotCorruption : public SnapshotFixture {};

TEST_F(SnapshotCorruption, SingleBytesLoadOnlyForests) {
  ASSERT_TRUE(trav->match(whole_nodes(1, 100), traverser::MatchOp::allocate,
                          0, 1));
  const std::string good = EngineSnapshot::save(g, *trav, nullptr);
  ASSERT_TRUE(is_containment_forest(*(*EngineSnapshot::load(good))->graph));
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const char b : {'\x00', '\x7f'}) {
      if (good[i] == b) continue;
      std::string bad = good;
      bad[i] = b;
      auto eng = EngineSnapshot::load(bad);
      if (!eng) continue;
      ++accepted;
      EXPECT_TRUE(is_containment_forest(*(*eng)->graph))
          << "byte " << i << " set to " << int{b};
      (void)(*eng)->graph->validate();
      traverser::Traverser& t = *(*eng)->traverser;
      (void)t.match(whole_nodes(1, 50), traverser::MatchOp::allocate, 0,
                    (*eng)->next_job_id);
      (void)t.cancel(1);
    }
  }
  EXPECT_GT(accepted, 0u);
}

// --- engine round trip ----------------------------------------------------

TEST_F(SnapshotFixture, EngineRoundTripPreservesClaims) {
  auto m1 = trav->match(whole_nodes(2, 100), traverser::MatchOp::allocate,
                        0, 1);
  auto m2 = trav->match(whole_nodes(1, 50), traverser::MatchOp::allocate,
                        0, 2);
  ASSERT_TRUE(m1);
  ASSERT_TRUE(m2);

  const std::string bytes = save_engine(g, *trav, nullptr);
  auto eng = load_engine(bytes);
  ASSERT_TRUE(eng);
  EXPECT_EQ((*eng)->graph->vertex_count(), g.vertex_count());
  EXPECT_EQ((*eng)->policy_name, "low-id");
  EXPECT_EQ((*eng)->queue, nullptr);
  EXPECT_EQ((*eng)->next_job_id, 3);
  EXPECT_EQ((*eng)->traverser->mutation_epoch(), trav->mutation_epoch());

  // The restored claims block the same capacity: a 4-node job cannot start
  // now on either engine, and becomes feasible at the same instant.
  const auto js = whole_nodes(4, 10);
  traverser::Traverser& rt = *(*eng)->traverser;
  auto p_orig = trav->match(js, traverser::MatchOp::allocate_orelse_reserve,
                            0, 10);
  auto p_rest = rt.match(js, traverser::MatchOp::allocate_orelse_reserve,
                         0, 10);
  ASSERT_TRUE(p_orig);
  ASSERT_TRUE(p_rest);
  EXPECT_EQ(p_orig->at, p_rest->at);
  EXPECT_EQ(p_orig->reserved, p_rest->reserved);

  // Restored job records are live: cancelling them releases the claim.
  EXPECT_TRUE(rt.cancel(1));
  EXPECT_TRUE(rt.cancel(2));
  EXPECT_EQ(rt.find_job(1), nullptr);
}

TEST(SnapshotAudit, NestedJobRecordsFailAudit) {
  // The walk never places a job beneath a vertex another job holds
  // whole, but load replays job records without the walk's checks. Job 1
  // holds node0 whole now and job 2 takes a core of node0 much later;
  // rewriting job 2's start to now makes the two records nest in space
  // and time, and the audit must see it.
  graph::ResourceGraph g(0, std::int64_t{1} << 31);
  auto recipe =
      grug::parse("cluster count=1\n  node count=2\n    core count=4\n");
  ASSERT_TRUE(recipe);
  auto root = grug::build(g, *recipe);
  ASSERT_TRUE(root);
  policy::LowIdPolicy pol;
  traverser::Traverser t(g, *root, pol);
  constexpr util::TimePoint kLater = 1'000'000'007;
  ASSERT_TRUE(t.match(whole_nodes(1, 100), traverser::MatchOp::allocate,
                      0, 1));
  auto js = make({slot(1, {res("core", 1)})}, 100);
  ASSERT_TRUE(js);
  auto later = t.match(*js, traverser::MatchOp::allocate, kLater, 2);
  ASSERT_TRUE(later);
  ASSERT_EQ(later->at, kLater);
  const auto node0 = *g.find_by_path("/cluster0/node0");
  bool under_node0 = false;
  for (const auto& ru : later->resources) {
    under_node0 = under_node0 || (ru.vertex != node0 &&
                                  g.in_subtree(ru.vertex, node0));
  }
  ASSERT_TRUE(under_node0);

  const std::string good = EngineSnapshot::save(g, t, nullptr);
  auto encoded = [](util::TimePoint at) {
    Writer w;
    w.iv(at);
    return w.take();
  };
  const std::string from = encoded(kLater), to = encoded(0);
  std::string nested = good;
  std::size_t rewritten = 0;
  for (auto at = nested.find(from); at != std::string::npos;
       at = nested.find(from, at + to.size())) {
    nested.replace(at, from.size(), to);
    ++rewritten;
  }
  ASSERT_GE(rewritten, 2u);  // the job's start and its claims' windows

  auto intact = EngineSnapshot::load(good);
  ASSERT_TRUE(intact) << intact.error().message;
  EXPECT_TRUE((*intact)->traverser->audit());
  auto eng = EngineSnapshot::load(nested);
  ASSERT_TRUE(eng) << eng.error().message;
  const traverser::Traverser& rt = *(*eng)->traverser;
  ASSERT_EQ(rt.find_job(2)->at, 0);
  // Every span and filter still recounts; only the cross-job sweep in
  // verify_claims sees the nesting.
  EXPECT_TRUE(rt.verify_filters());
  EXPECT_FALSE(rt.verify_claims());
  EXPECT_FALSE(rt.audit());
}

TEST_F(SnapshotFixture, SaveIsDeterministic) {
  auto m = trav->match(whole_nodes(3, 200), traverser::MatchOp::allocate,
                       0, 1);
  ASSERT_TRUE(m);
  EXPECT_EQ(EngineSnapshot::save(g, *trav, nullptr),
            EngineSnapshot::save(g, *trav, nullptr));
}

// Two runs of the same workload, each on its own engine, save the same
// bytes: the image holds no wall-clock value (such as match seconds).
TEST_F(SnapshotFixture, IdenticalRunsSaveIdenticalBytes) {
  const auto run = [] {
    graph::ResourceGraph rg(0, 1 << 20);
    auto recipe = grug::parse(
        "filters node core\nfilter-at cluster\n"
        "cluster count=1\n  node count=4\n    core count=4\n");
    EXPECT_TRUE(recipe);
    auto root = grug::build(rg, *recipe);
    EXPECT_TRUE(root);
    policy::LowIdPolicy lp;
    traverser::Traverser tr(rg, *root, lp);
    queue::JobQueue q(tr, queue::QueuePolicy::conservative_backfill);
    for (int i = 0; i < 8; ++i) q.submit(whole_nodes(1 + i % 4, 50 + 10 * i));
    q.schedule();
    EXPECT_TRUE(q.advance_to(120));
    q.schedule();
    return save_engine(rg, tr, &q);
  };
  const std::string first = run();
  const std::string second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(SnapshotFixture, QueueRoundTripPreservesJobsAndClock) {
  queue::JobQueue q(*trav, queue::QueuePolicy::conservative_backfill);
  q.set_eventlog(true);
  const auto a = q.submit(whole_nodes(4, 100));
  const auto b = q.submit(whole_nodes(2, 50));
  q.schedule();
  ASSERT_TRUE(q.advance_to(60));

  const std::string bytes = save_engine(g, *trav, &q);
  auto eng = load_engine(bytes);
  ASSERT_TRUE(eng);
  ASSERT_NE((*eng)->queue, nullptr);
  queue::JobQueue& rq = *(*eng)->queue;
  EXPECT_EQ(rq.now(), q.now());
  EXPECT_EQ(rq.stats().submitted, q.stats().submitted);
  EXPECT_EQ(rq.stats().completed, q.stats().completed);
  EXPECT_EQ(rq.all_jobs(), q.all_jobs());
  ASSERT_NE(rq.find(a), nullptr);
  ASSERT_NE(rq.find(b), nullptr);
  EXPECT_EQ(rq.find(a)->state, q.find(a)->state);
  EXPECT_EQ(rq.find(b)->state, q.find(b)->state);
  EXPECT_EQ(rq.find(a)->start_time, q.find(a)->start_time);
  // The eventlog rides along byte-for-byte.
  EXPECT_EQ(rq.eventlog().jsonl(), q.eventlog().jsonl());

  // Both engines finish the workload identically.
  q.run_to_completion();
  rq.run_to_completion();
  EXPECT_EQ(rq.find(b)->end_time, q.find(b)->end_time);
  EXPECT_EQ(rq.eventlog().jsonl(), q.eventlog().jsonl());
}

// --- format migration -----------------------------------------------------

// A version-1 blob (tests/snapshot/snapshot_v1.inc) still loads, and the
// engine it restores finishes the workload exactly as a run that never
// snapshotted does.
TEST_F(SnapshotFixture, Version1BlobResumesLikeStraightReplay) {
  const auto submit_first = [](queue::JobQueue& q) {
    q.submit(whole_nodes(2, 100));
    q.submit(whole_nodes(4, 50));
    q.submit(whole_nodes(1, 30));
    q.submit(whole_nodes(3, 80));
  };
  const auto submit_rest = [](queue::JobQueue& q) {
    q.submit(whole_nodes(2, 60));
    q.submit(whole_nodes(4, 10));
    q.submit(whole_nodes(1, 500));
  };
  queue::JobQueue q(*trav, queue::QueuePolicy::conservative_backfill);
  submit_first(q);
  q.schedule();
  ASSERT_TRUE(q.advance_to(40));
  q.schedule();
  const queue::QueueStats at_save = q.stats();

  const std::string_view blob(
      reinterpret_cast<const char*>(testdata::kSnapshotV1),
      sizeof testdata::kSnapshotV1);
  ASSERT_EQ(blob[4], 1) << "the blob must stay a version-1 image";
  auto eng = EngineSnapshot::load(blob);
  ASSERT_TRUE(eng) << eng.error().message;
  ASSERT_NE((*eng)->queue, nullptr);
  queue::JobQueue& rq = *(*eng)->queue;
  EXPECT_EQ(rq.now(), q.now());
  EXPECT_EQ(rq.all_jobs(), q.all_jobs());
  EXPECT_EQ(rq.stats().submitted, at_save.submitted);
  EXPECT_EQ(rq.stats().completed, at_save.completed);
  EXPECT_EQ(rq.stats().match_calls, at_save.match_calls);
  EXPECT_EQ(rq.stats().reservations_made, at_save.reservations_made);
  EXPECT_EQ(rq.stats().reservations_dropped, at_save.reservations_dropped);
  // An exclusive root claim sees the restored jobs: the walk refuses it
  // on both engines alike.
  auto cluster = make({slot(1, {res("cluster", 1)})}, 10);
  ASSERT_TRUE(cluster);
  for (traverser::Traverser* tr : {trav.get(), (*eng)->traverser.get()}) {
    auto m = tr->match(*cluster, traverser::MatchOp::allocate, q.now(), 99);
    ASSERT_FALSE(m);
    EXPECT_EQ(m.error().code, util::Errc::resource_busy) << m.error().message;
  }

  submit_rest(q);
  submit_rest(rq);
  ASSERT_TRUE(q.run_to_completion());
  ASSERT_TRUE(rq.run_to_completion());
  ASSERT_EQ(rq.all_jobs(), q.all_jobs());
  for (const queue::JobId id : q.all_jobs()) {
    const queue::Job& want = *q.find(id);
    const queue::Job& got = *rq.find(id);
    EXPECT_EQ(got.state, want.state) << "job " << id;
    EXPECT_EQ(got.start_time, want.start_time) << "job " << id;
    EXPECT_EQ(got.end_time, want.end_time) << "job " << id;
    ASSERT_EQ(got.resources.size(), want.resources.size()) << "job " << id;
    for (std::size_t i = 0; i < want.resources.size(); ++i) {
      EXPECT_EQ(got.resources[i].vertex, want.resources[i].vertex);
      EXPECT_EQ(got.resources[i].units, want.resources[i].units);
      EXPECT_EQ(got.resources[i].exclusive, want.resources[i].exclusive);
    }
  }
}

// --- replica --------------------------------------------------------------

TEST_F(SnapshotFixture, ReplicaAgreesWithWriterAtSameEpoch) {
  // Fill the machine until t=100.
  for (int j = 1; j <= 4; ++j) {
    ASSERT_TRUE(trav->match(whole_nodes(1, 100),
                            traverser::MatchOp::allocate, 0, j));
  }
  const std::string bytes = save_engine(g, *trav, nullptr);
  auto rep = Replica::open(bytes);
  ASSERT_TRUE(rep);
  EXPECT_EQ((*rep)->epoch(), trav->mutation_epoch());
  EXPECT_FALSE((*rep)->stale_against(trav->mutation_epoch()));
  EXPECT_EQ((*rep)->policy_name(), "low-id");

  // Satisfiability matches the writer's graph shape.
  EXPECT_TRUE((*rep)->satisfiable(whole_nodes(4, 10)));
  EXPECT_FALSE((*rep)->satisfiable(whole_nodes(5, 10)));

  // Earliest start agrees with the writer's own reserve probe.
  auto w = trav->match(whole_nodes(1, 10),
                       traverser::MatchOp::allocate_orelse_reserve, 0, 99);
  ASSERT_TRUE(w);
  auto rs = (*rep)->earliest_start(whole_nodes(1, 10), 0);
  ASSERT_TRUE(rs);
  EXPECT_EQ(*rs, w->at);
  EXPECT_GE((*rep)->queries(), 3u);

  // The writer's reserve moved its epoch: the replica is now stale, and a
  // refresh from a fresh snapshot catches it up.
  EXPECT_TRUE((*rep)->stale_against(trav->mutation_epoch()));
  EXPECT_TRUE((*rep)->refresh(save_engine(g, *trav, nullptr)));
  EXPECT_FALSE((*rep)->stale_against(trav->mutation_epoch()));

  // A failed refresh keeps the replica serving its current snapshot.
  EXPECT_FALSE((*rep)->refresh("garbage"));
  EXPECT_EQ((*rep)->epoch(), trav->mutation_epoch());
  EXPECT_TRUE((*rep)->satisfiable(whole_nodes(4, 10)));
}

// --- mutation-epoch regression (failed ops must not invalidate) -----------

TEST_F(SnapshotFixture, FailedMutationsDoNotBumpEpoch) {
  ASSERT_TRUE(trav->match(whole_nodes(1, 100),
                          traverser::MatchOp::allocate, 0, 1));
  const std::uint64_t e0 = trav->mutation_epoch();

  // Cleanly failed attempts: unknown job, unknown vertex. All must leave
  // the epoch alone — they touched no span, so caches stay valid.
  EXPECT_FALSE(trav->cancel(999));
  EXPECT_FALSE(trav->shrink(999, 0));
  EXPECT_FALSE(trav->extend(999, 10));
  EXPECT_EQ(trav->mutation_epoch(), e0);

  // Successful ops still bump it.
  EXPECT_TRUE(trav->extend(1, 10));
  EXPECT_EQ(trav->mutation_epoch(), e0 + 1);
  EXPECT_TRUE(trav->cancel(1));
  EXPECT_EQ(trav->mutation_epoch(), e0 + 2);
}

TEST_F(SnapshotFixture, FailedMutationsDoNotInvalidateMatchCache) {
  queue::JobQueue q(*trav, queue::QueuePolicy::conservative_backfill);
  ASSERT_TRUE(q.match_cache());
  q.submit(whole_nodes(4, 100));
  q.submit(whole_nodes(4, 100));
  q.schedule();
  const std::uint64_t inval0 = q.stats().cache_invalidations;

  // A failed direct mutation between passes must not drop the queue's
  // match cache (the regression: unconditional epoch bumps made every
  // failed cancel/shrink/extend an invalidation).
  EXPECT_FALSE(trav->cancel(424242));
  EXPECT_FALSE(trav->extend(424242, 5));
  q.schedule();
  EXPECT_EQ(q.stats().cache_invalidations, inval0);
}

}  // namespace
}  // namespace fluxion::snapshot
