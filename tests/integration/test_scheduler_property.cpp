// Randomized end-to-end property suite: a storm of allocate / reserve /
// cancel operations against invariants that must hold no matter what.
//
// Invariants checked:
//   1. pruning filters always equal a from-scratch recount (SDFU exactness);
//   2. every vertex planner stays structurally valid;
//   3. exclusive allocations are disjoint: if job A holds vertex v
//      exclusively during window W, no time-overlapping job touches v or
//      anything in v's containment subtree;
//   4. pool vertices are never oversubscribed: the sum of overlapping
//      jobs' claimed units on a vertex never exceeds its size;
//   5. committed windows never move (reservations are firm);
//   6. cancel is a perfect inverse: after cancelling everything the graph
//      returns to a fully idle state.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "policy/policies.hpp"
#include "traverser/traverser.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fluxion::traverser {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;

struct ActiveJob {
  JobId id;
  TimePoint at;
  util::Duration d;
  std::vector<ResourceUnit> resources;
};

struct Params {
  std::uint64_t seed;
  const char* policy;
  int steps;
};

// Prints the fields by value. Without it gtest dumps the raw bytes of the
// struct, which hold the address of `policy` and padding, so the test
// names reported by gtest_discover_tests changed from build to build.
void PrintTo(const Params& p, std::ostream* os) {
  *os << "seed=" << p.seed << " policy=" << p.policy << " steps=" << p.steps;
}

class SchedulerStorm : public ::testing::TestWithParam<Params> {
 protected:
  SchedulerStorm() : g(0, 1 << 22) {
    auto recipe = grug::parse(
        "filters node core memory\nfilter-at cluster rack\n"
        "cluster count=1\n  rack count=3\n    node count=4\n"
        "      core count=8\n      memory count=2 size=16\n      gpu count=1\n");
    EXPECT_TRUE(recipe);
    auto root = grug::build(g, *recipe);
    EXPECT_TRUE(root);
    auto pol = policy::create(GetParam().policy);
    EXPECT_TRUE(pol);
    policy_ = std::move(*pol);
    trav = std::make_unique<Traverser>(g, *root, *policy_);
    // Post-mutation audit hook: every match/cancel re-validates all vertex
    // planners and the pruning filters, so corruption surfaces at the
    // mutation that caused it (as Errc::internal), not at the end.
    trav->set_audit(true);
    baseline_internal_ = util::internal_error_count();
  }

  bool windows_overlap(const ActiveJob& a, const ActiveJob& b) const {
    return a.at < b.at + b.d && b.at < a.at + a.d;
  }

  /// Invariants 3 + 4 from the recorded allocations.
  void check_disjointness(const std::vector<ActiveJob>& jobs) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t j = i + 1; j < jobs.size(); ++j) {
        if (!windows_overlap(jobs[i], jobs[j])) continue;
        // Exclusive whole-vertex claims block the other job's subtree use.
        for (const auto& ru : jobs[i].resources) {
          if (!ru.exclusive || ru.units != g.vertex(ru.vertex).size) continue;
          const std::string& prefix = g.vertex(ru.vertex).path;
          for (const auto& other : jobs[j].resources) {
            const std::string& p = g.vertex(other.vertex).path;
            ASSERT_FALSE(p == prefix ||
                         (p.size() > prefix.size() &&
                          p.compare(0, prefix.size(), prefix) == 0 &&
                          p[prefix.size()] == '/'))
                << "job " << jobs[j].id << " uses " << p << " inside job "
                << jobs[i].id << "'s exclusive " << prefix;
          }
        }
      }
    }
    // Per-vertex unit accounting across overlapping jobs.
    std::map<VertexId, std::vector<std::pair<const ActiveJob*, std::int64_t>>>
        users;
    for (const auto& job : jobs) {
      for (const auto& ru : job.resources) {
        users[ru.vertex].emplace_back(&job, ru.units);
      }
    }
    for (const auto& [v, list] : users) {
      // Probe at every job start among the users.
      for (const auto& [probe_job, _] : list) {
        std::int64_t used = 0;
        for (const auto& [job, units] : list) {
          if (job->at <= probe_job->at &&
              probe_job->at < job->at + job->d) {
            used += units;
          }
        }
        ASSERT_LE(used, g.vertex(v).size)
            << "vertex " << g.vertex(v).path << " oversubscribed";
      }
    }
  }

  jobspec::Jobspec random_jobspec(util::Rng& rng) {
    switch (rng.uniform(0, 4)) {
      case 0: {  // whole nodes
        auto js = make({slot(rng.uniform(1, 6),
                             {xres("node", 1, {res("core", 8)})})},
                       rng.uniform(5, 200));
        EXPECT_TRUE(js);
        return *js;
      }
      case 1: {  // cores on a shared node
        auto js = make({res("node", 1,
                            {slot(1, {res("core", rng.uniform(1, 8))})})},
                       rng.uniform(5, 200));
        EXPECT_TRUE(js);
        return *js;
      }
      case 2: {  // memory + gpu mix
        auto js = make(
            {res("node", 1,
                 {slot(1, {res("memory", rng.uniform(1, 32)),
                           res("gpu", 1)})})},
            rng.uniform(5, 200));
        EXPECT_TRUE(js);
        return *js;
      }
      case 3: {  // rack-spread exclusive nodes
        auto js = make({res("rack", 2, {slot(1, {xres("node", 1)})})},
                       rng.uniform(5, 100));
        EXPECT_TRUE(js);
        return *js;
      }
      default: {  // pure core quantity across the cluster
        auto js = make({slot(1, {res("core", rng.uniform(1, 40))})},
                       rng.uniform(5, 100));
        EXPECT_TRUE(js);
        return *js;
      }
    }
  }

  /// Occasionally make a request moldable — the storm's invariants must
  /// hold whatever amount the matcher molds to.
  jobspec::Jobspec maybe_moldable(util::Rng& rng) {
    if (!rng.chance(0.25)) return random_jobspec(rng);
    auto js = make({slot(1, {jobspec::res_range("core",
                                                rng.uniform(1, 8),
                                                rng.uniform(9, 30))})},
                   rng.uniform(5, 150));
    EXPECT_TRUE(js);
    return *js;
  }

  graph::ResourceGraph g;
  std::unique_ptr<MatchPolicy> policy_;
  std::unique_ptr<Traverser> trav;
  std::uint64_t baseline_internal_ = 0;
};

TEST_P(SchedulerStorm, InvariantsHoldUnderChurn) {
  util::Rng rng(GetParam().seed);
  std::vector<ActiveJob> active;
  TimePoint now = 0;
  JobId next_id = 1;
  int committed = 0;

  for (int step = 0; step < GetParam().steps; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.55 || active.empty()) {
      const auto js = maybe_moldable(rng);
      const JobId id = next_id++;
      const MatchOp op = rng.chance(0.5)
                             ? MatchOp::allocate
                             : MatchOp::allocate_orelse_reserve;
      auto r = trav->match(js, op, now, id);
      if (!r) {
        // A failed match must be a scheduling outcome, never corruption.
        ASSERT_NE(r.error().code, util::Errc::internal)
            << "step " << step << ": " << r.error().message;
      }
      if (r) {
        ASSERT_GE(r->at, now);
        if (op == MatchOp::allocate) {
          ASSERT_EQ(r->at, now);
        }
        active.push_back({id, r->at, r->duration, r->resources});
        ++committed;
      }
    } else if (dice < 0.80) {
      const auto i = rng.index(active.size());
      ASSERT_TRUE(trav->cancel(active[i].id));
      active[i] = active.back();
      active.pop_back();
    } else {
      now += rng.uniform(1, 50);
      // Drop jobs that finished before `now` (their spans are history;
      // cancel purges bookkeeping like the queue does on completion).
      std::vector<ActiveJob> still;
      for (auto& job : active) {
        if (job.at + job.d <= now) {
          ASSERT_TRUE(trav->cancel(job.id));
        } else {
          still.push_back(std::move(job));
        }
      }
      active = std::move(still);
    }

    if (step % 23 == 0) {
      ASSERT_TRUE(trav->verify_filters()) << "step " << step;
      check_disjointness(active);
      // Windows must never move (invariant 5).
      for (const auto& job : active) {
        const MatchResult* r = trav->find_job(job.id);
        ASSERT_NE(r, nullptr);
        ASSERT_EQ(r->at, job.at);
        ASSERT_EQ(r->duration, job.d);
      }
    }
  }
  EXPECT_GT(committed, GetParam().steps / 10);

  // Invariant 6: cancel everything; the graph must be fully idle.
  for (const auto& job : active) ASSERT_TRUE(trav->cancel(job.id));
  EXPECT_EQ(trav->job_count(), 0u);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const graph::Vertex& vx = g.vertex(v);
    if (!vx.alive) continue;
    EXPECT_EQ(vx.schedule->span_count(), 0u) << vx.path;
    EXPECT_EQ(vx.x_checker->span_count(), 0u) << vx.path;
    EXPECT_TRUE(vx.schedule->validate());
    if (vx.filter != nullptr) {
      EXPECT_EQ(vx.filter->span_count(), 0u) << vx.path;
    }
  }
  EXPECT_TRUE(g.validate());
  // No mutation anywhere in the storm tripped an internal invariant.
  EXPECT_EQ(util::internal_error_count(), baseline_internal_);
}

INSTANTIATE_TEST_SUITE_P(
    Storm, SchedulerStorm,
    ::testing::Values(Params{1, "low-id", 900}, Params{2, "high-id", 900},
                      Params{3, "variation-aware", 700},
                      Params{4, "locality", 700}, Params{5, "low-id", 1500},
                      Params{6, "high-id", 600},
                      Params{7, "variation-aware", 600}));

}  // namespace
}  // namespace fluxion::traverser
