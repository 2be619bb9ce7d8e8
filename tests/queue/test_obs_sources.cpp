// obs::Source: the monitor reports the queue's and the federation's own
// tallies, read in place, never copied. One test per rule: the totals
// equal the owners' sums; a destroyed source's counts survive until the
// next reset(); counts made while obs is off are not reported; a warm
// start reports only what ran after the load; Prometheus gives each
// federation member its own sample and a flat run none.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "grug/grug.hpp"
#include "grug/recipes.hpp"
#include "hier/federation.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "snapshot/snapshot.hpp"

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

/// Every sourced queue key and the QueueStats tally behind it.
std::vector<std::pair<std::string, std::uint64_t>> queue_tallies(
    const QueueStats& s) {
  return {{"queue.submitted", s.submitted},
          {"queue.schedule_passes", s.schedule_passes},
          {"queue.match_calls", s.match_calls},
          {"queue.started_immediately", s.started_immediately},
          {"queue.completed", s.completed},
          {"queue.rejected", s.rejected},
          {"queue.events_fired", s.events_fired},
          {"queue.jobs_scanned", s.heap_pops},
          {"queue.match_skipped", s.match_skipped},
          {"queue.match_dominated", s.match_dominated},
          {"queue.cache_invalidations", s.cache_invalidations},
          {"queue.reservations_made", s.reservations_made},
          {"queue.reservations_dropped", s.reservations_dropped}};
}

std::uint64_t reported(const char* key) { return obs::monitor().value(key); }

/// Prometheus samples of one family: label set -> value.
std::map<std::string, std::uint64_t> samples(const std::string& text,
                                             const std::string& family) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;
    const std::string rest = line.substr(family.size());
    if (rest[0] != ' ' && rest[0] != '{') continue;  // a longer name
    const auto sp = rest.rfind(' ');
    out[rest.substr(0, sp)] = std::stoull(rest.substr(sp + 1));
  }
  return out;
}

std::unique_ptr<hier::Federation> run_federation(std::size_t children) {
  hier::FederationConfig cfg;
  cfg.children = children;
  cfg.route = hier::RoutePolicy::round_robin;
  cfg.steal_threshold = 1.5;
  // 1 rack x 16 nodes x 4 cores; with 3 leaves each owns 5 nodes, so a
  // 6-node job escalates to the root.
  auto fed = hier::Federation::create(grug::recipes::quartz(true, 1, 16, 4),
                                      cfg);
  EXPECT_TRUE(fed) << (fed ? "" : fed.error().message);
  if (!fed) return nullptr;
  for (int i = 0; i < 24; ++i) {
    (*fed)->submit(whole_nodes(1 + i % 3, 20 + 10 * (i % 5)));
  }
  (*fed)->submit(whole_nodes(6, 30));
  EXPECT_TRUE((*fed)->run_to_completion());
  return std::move(*fed);
}

class ObsSources : public ::testing::Test {
 protected:
  ObsSources() : g(0, 1 << 20) {
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
  ~ObsSources() override {
    obs::monitor().reset();
    obs::set_enabled(false);
  }

  graph::ResourceGraph g;
  policy::LowIdPolicy pol;
  std::unique_ptr<traverser::Traverser> trav;
};

TEST_F(ObsSources, TotalsEqualQueueStatsAfterFlatRun) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  // Exercise every tally: immediate starts, reservations, cache skips (one
  // dominated), a cache invalidation, an unsatisfiable reject and a
  // dropped reservation.
  q.submit(whole_nodes(4, 100));                  // fills the machine
  const JobId r1 = q.submit(whole_nodes(2, 50));  // head blocked, reserves
  q.submit(whole_nodes(2, 50));                   // identical spec
  q.submit(whole_nodes(3, 60));  // larger and longer: dominated by it
  q.submit(whole_nodes(5, 10));                   // 5 > 4 nodes: rejected
  q.schedule();
  q.schedule();  // replays the third job's verdict from the cache
  ASSERT_TRUE(q.cancel(r1));
  ASSERT_TRUE(q.run_to_completion());
  for (const auto& [key, want] : queue_tallies(q.stats())) {
    EXPECT_GT(want, 0u) << key << ": the scenario must exercise it";
    EXPECT_EQ(obs::monitor().value(key), want) << key;
  }
}

TEST_F(ObsSources, TotalsEqualStatsSumsAfterFederationRun) {
  auto fed = run_federation(3);
  ASSERT_NE(fed, nullptr);
  ASSERT_EQ(fed->member_count(), 4u);
  std::map<std::string, std::uint64_t> sums;
  for (std::size_t i = 0; i < fed->member_count(); ++i) {
    for (const auto& [key, v] : queue_tallies(fed->member(i).queue->stats())) {
      sums[key] += v;
    }
  }
  for (const auto& [key, want] : sums) {
    EXPECT_EQ(obs::monitor().value(key), want) << key;
  }
  const hier::FederationStats& fs = fed->stats();
  EXPECT_GT(fs.routed, 0u);
  EXPECT_GT(fs.escalated, 0u);
  EXPECT_EQ(reported("hier.routed"), fs.routed);
  EXPECT_EQ(reported("hier.escalated"), fs.escalated);
  EXPECT_EQ(reported("hier.stolen"), fs.stolen);
  EXPECT_EQ(reported("hier.steal_passes"), fs.steal_passes);
}

TEST_F(ObsSources, DestroyedQueueCountsSurviveUntilReset) {
  {
    JobQueue q(*trav, QueuePolicy::fcfs);
    for (int i = 0; i < 3; ++i) q.submit(whole_nodes(1, 10));
    ASSERT_TRUE(q.run_to_completion());
  }
  EXPECT_EQ(reported("queue.submitted"), 3u);
  EXPECT_EQ(reported("queue.completed"), 3u);
  JobQueue live(*trav, QueuePolicy::fcfs);
  live.submit(whole_nodes(1, 10));
  EXPECT_EQ(reported("queue.submitted"), 4u);
  // reset() drops the retired counts and rebaselines the live queue.
  obs::monitor().reset();
  EXPECT_EQ(reported("queue.submitted"), 0u);
  EXPECT_EQ(reported("queue.completed"), 0u);
  live.submit(whole_nodes(1, 10));
  EXPECT_EQ(reported("queue.submitted"), 1u);
  EXPECT_EQ(live.stats().submitted, 2u);
}

TEST_F(ObsSources, CountsWhileDisabledAreNotReported) {
  JobQueue q(*trav, QueuePolicy::fcfs);
  q.submit(whole_nodes(1, 10));
  q.submit(whole_nodes(1, 10));
  obs::set_enabled(true);  // already on: changes nothing
  EXPECT_EQ(reported("queue.submitted"), 2u);
  obs::set_enabled(false);
  for (int i = 0; i < 3; ++i) q.submit(whole_nodes(1, 10));
  EXPECT_EQ(reported("queue.submitted"), 2u);  // kept, not grown
  obs::set_enabled(true);
  EXPECT_EQ(reported("queue.submitted"), 2u);
  q.submit(whole_nodes(1, 10));
  EXPECT_EQ(reported("queue.submitted"), 3u);
  EXPECT_EQ(q.stats().submitted, 6u);
}

TEST_F(ObsSources, WarmStartReportsOnlyWhatRanAfterLoad) {
  JobQueue q(*trav, QueuePolicy::conservative_backfill);
  for (int i = 0; i < 4; ++i) q.submit(whole_nodes(1 + i % 2, 50));
  q.schedule();
  ASSERT_TRUE(q.advance_to(20));
  const std::string bytes = snapshot::save_engine(g, *trav, &q);
  obs::monitor().reset();
  auto eng = snapshot::load_engine(bytes);
  ASSERT_TRUE(eng) << eng.error().message;
  JobQueue& warm = *(*eng)->queue;
  ASSERT_EQ(warm.stats().submitted, 4u);  // restored from the image
  warm.submit(whole_nodes(1, 10));
  warm.submit(whole_nodes(2, 10));
  warm.schedule();
  EXPECT_EQ(reported("queue.submitted"), 2u);
  EXPECT_EQ(warm.stats().submitted, 6u);
}

TEST_F(ObsSources, MemberSamplesSumToJsonTotal) {
  auto fed = run_federation(3);
  ASSERT_NE(fed, nullptr);
  const std::string prom = obs::monitor().prometheus();
  const auto completed = samples(prom, "fluxion_queue_completed_total");
  std::uint64_t sum = 0;
  for (const auto& [labels, v] : completed) sum += v;
  const std::map<std::string, std::uint64_t> want = {
      {"{instance=\"child0\"}", fed->member(0).queue->stats().completed},
      {"{instance=\"child1\"}", fed->member(1).queue->stats().completed},
      {"{instance=\"child2\"}", fed->member(2).queue->stats().completed},
      {"{instance=\"root\"}", fed->member(3).queue->stats().completed}};
  EXPECT_EQ(completed, want);
  const std::string json = obs::monitor().json();
  const std::string queue = json.substr(json.find("\"queue\":{"));
  EXPECT_NE(queue.find("\"completed\":" + std::to_string(sum) + ","),
            std::string::npos)
      << queue;
  EXPECT_EQ(sum, reported("queue.completed"));
  // Every queue counter sample names its member; the federation's own
  // counters stay unlabelled.
  for (const auto& [key, v] : queue_tallies(QueueStats{})) {
    const std::string family =
        "fluxion_queue_" + key.substr(key.find('.') + 1) + "_total";
    const auto s = samples(prom, family);
    ASSERT_EQ(s.size(), 4u) << family;
    for (const auto& [labels, n] : s) {
      EXPECT_EQ(labels.rfind("{instance=\"", 0), 0u) << family << labels;
    }
  }
  EXPECT_EQ(samples(prom, "fluxion_hier_routed_total").begin()->first, "");
}

TEST_F(ObsSources, FlatRunSamplesCarryNoLabels) {
  JobQueue q(*trav, QueuePolicy::easy_backfill);
  for (int i = 0; i < 5; ++i) q.submit(whole_nodes(1 + i % 4, 20));
  ASSERT_TRUE(q.run_to_completion());
  auto flat_fed = run_federation(1);  // a federation of one: no labels
  ASSERT_NE(flat_fed, nullptr);
  const std::string prom = obs::monitor().prometheus();
  EXPECT_EQ(prom.find("instance="), std::string::npos) << prom;
  const auto completed = samples(prom, "fluxion_queue_completed_total");
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed.at(""),
            q.stats().completed + flat_fed->member(0).queue->stats().completed);
}

}  // namespace
}  // namespace fluxion::queue
