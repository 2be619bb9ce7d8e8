// The engine's one concurrent use: read replicas, one per thread, opened
// from the same snapshot bytes (snapshot/replica.hpp, reapi.h). Every
// thread opens its own Replica and asks the same questions; the answers
// must equal a serial run. Run under ThreadSanitizer in CI, this is also
// the race check for the shared obs::monitor() the replicas all bump.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "grug/grug.hpp"
#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "queue/job_queue.hpp"
#include "snapshot/replica.hpp"
#include "snapshot/snapshot.hpp"

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

jobspec::Jobspec cores(std::int64_t n, util::Duration d) {
  auto js = make({slot(1, {res("core", n)})}, d);
  EXPECT_TRUE(js);
  return *js;
}

/// Every answer one replica gives for the fixed query list, rendered so
/// two runs compare with one EXPECT_EQ.
std::vector<std::string> ask_all(const Replica& rep,
                                 const std::vector<jobspec::Jobspec>& specs,
                                 const std::vector<queue::JobId>& jobs) {
  std::vector<std::string> out;
  for (const auto& js : specs) {
    out.push_back(rep.satisfiable(js) ? "sat" : "unsat");
    for (const util::TimePoint now : {0, 50, 400}) {
      auto t = rep.earliest_start(js, now);
      out.push_back(t ? std::to_string(*t)
                      : std::string(util::errc_name(t.error().code)));
    }
  }
  for (const queue::JobId id : jobs) out.push_back(rep.explain(id));
  return out;
}

TEST(ReplicaThreads, ConcurrentQueriesMatchSerial) {
  // Writer: a busy conservative queue with an eventlog, so explain has a
  // timeline and blocked attribution to render.
  graph::ResourceGraph g(0, 1 << 20);
  auto recipe = grug::parse(
      "filters node core\nfilter-at cluster rack\n"
      "cluster count=1\n  rack count=2\n    node count=4\n"
      "      core count=4\n");
  ASSERT_TRUE(recipe);
  auto root = grug::build(g, *recipe);
  ASSERT_TRUE(root);
  policy::LowIdPolicy pol;
  traverser::Traverser trav(g, *root, pol);
  queue::JobQueue q(trav, queue::QueuePolicy::conservative_backfill);
  q.set_eventlog(true);
  for (int i = 0; i < 10; ++i) q.submit(whole_nodes(1 + i % 5, 60 + 40 * i));
  q.submit(cores(3, 30));
  q.submit(whole_nodes(9, 10));  // never satisfiable: rejected
  q.schedule();
  ASSERT_TRUE(q.advance_to(100));
  q.schedule();
  const std::string bytes = save_engine(g, trav, &q);

  const std::vector<jobspec::Jobspec> specs = {
      whole_nodes(1, 30), whole_nodes(4, 100), whole_nodes(8, 10),
      whole_nodes(9, 10), cores(2, 20),        cores(5, 200)};
  const std::vector<queue::JobId> jobs = q.all_jobs();

  obs::monitor().reset();
  obs::set_enabled(true);
  auto serial = Replica::open(bytes);
  ASSERT_TRUE(serial) << serial.error().message;
  const std::vector<std::string> want = ask_all(**serial, specs, jobs);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<std::string>> got(kThreads * kRounds);
  std::vector<int> opened(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto rep = Replica::open(bytes);
      if (!rep) return;
      opened[t] = 1;
      for (int r = 0; r < kRounds; ++r) {
        got[t * kRounds + r] = ask_all(**rep, specs, jobs);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t queries = obs::monitor().replica_queries.value();
  obs::set_enabled(false);

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(opened[t], 1) << "thread " << t;
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(got[t * kRounds + r], want)
          << "thread " << t << " round " << r;
    }
  }
  // The shared counter saw every query from every thread.
  const std::uint64_t per_run = 4 * specs.size() + jobs.size();
  EXPECT_EQ(queries, per_run * (1 + kThreads * kRounds));
}

}  // namespace
}  // namespace fluxion::snapshot
