// Property tests: Planner versus a brute-force timeline oracle.
//
// The oracle keeps an explicit per-tick usage array; every Planner answer
// must agree with it under randomized span churn. This is the main defence
// for the earliest-fit descent over the time tree's subtree minima.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "param_bytes.hpp"
#include "planner/planner.hpp"
#include "planner/planner_multi.hpp"
#include "util/rng.hpp"

namespace fluxion::planner {
namespace {

class TimelineOracle {
 public:
  TimelineOracle(TimePoint base, Duration horizon, std::int64_t total)
      : base_(base), total_(total), used_(static_cast<std::size_t>(horizon), 0) {}

  bool avail_during(TimePoint at, Duration d, std::int64_t request) const {
    if (at < base_ || at + d > base_ + static_cast<Duration>(used_.size())) {
      return false;
    }
    if (d <= 0 || request > total_) return false;
    for (TimePoint t = at; t < at + d; ++t) {
      if (total_ - used_[idx(t)] < request) return false;
    }
    return true;
  }

  std::int64_t avail_at(TimePoint t) const { return total_ - used_[idx(t)]; }

  // Earliest feasible start >= at, or -1.
  TimePoint earliest(TimePoint at, Duration d, std::int64_t request) const {
    const TimePoint end = base_ + static_cast<Duration>(used_.size());
    for (TimePoint t = std::max(at, base_); t + d <= end; ++t) {
      if (avail_during(t, d, request)) return t;
    }
    return -1;
  }

  void add(TimePoint at, Duration d, std::int64_t request) {
    for (TimePoint t = at; t < at + d; ++t) used_[idx(t)] += request;
  }
  void rem(TimePoint at, Duration d, std::int64_t request) {
    for (TimePoint t = at; t < at + d; ++t) used_[idx(t)] -= request;
  }

 private:
  std::size_t idx(TimePoint t) const {
    return static_cast<std::size_t>(t - base_);
  }
  TimePoint base_;
  std::int64_t total_;
  std::vector<std::int64_t> used_;
};

struct Params {
  std::uint64_t seed;
  std::int64_t total;
  Duration horizon;
  int steps;
};

// Zeroes the padding in the case names (see param_bytes.hpp).
void PrintTo(const Params& p, std::ostream* os) {
  testing_support::print_param_bytes(p, os, &Params::seed, &Params::total,
                                     &Params::horizon, &Params::steps);
}

class PlannerOracleTest : public ::testing::TestWithParam<Params> {};

TEST_P(PlannerOracleTest, AgreesWithBruteForceTimeline) {
  const auto [seed, total, horizon, steps] = GetParam();
  util::Rng rng(seed);
  Planner plan(0, horizon, total, "res");
  TimelineOracle oracle(0, horizon, total);

  struct Live {
    SpanId id;
    TimePoint start;
    Duration d;
    std::int64_t amount;
  };
  std::vector<Live> live;

  for (int step = 0; step < steps; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.40 || live.empty()) {
      // Attempt an add at a random position; planner and oracle must agree
      // on feasibility.
      const auto amount = rng.uniform(1, total);
      const auto d = rng.uniform(1, std::max<Duration>(1, horizon / 4));
      const auto start = rng.uniform(0, horizon - d);
      const bool feasible = oracle.avail_during(start, d, amount);
      auto r = plan.add_span(start, d, amount);
      ASSERT_EQ(static_cast<bool>(r), feasible)
          << "step " << step << " start=" << start << " d=" << d
          << " amount=" << amount;
      if (r) {
        oracle.add(start, d, amount);
        live.push_back({*r, start, d, amount});
      }
    } else if (dice < 0.65 && !live.empty()) {
      const auto i = rng.index(live.size());
      ASSERT_TRUE(plan.rem_span(live[i].id));
      oracle.rem(live[i].start, live[i].d, live[i].amount);
      live[i] = live.back();
      live.pop_back();
    } else if (dice < 0.80) {
      const auto t = rng.uniform(0, horizon - 1);
      ASSERT_EQ(*plan.avail_at(t), oracle.avail_at(t)) << "t=" << t;
    } else {
      // Earliest-fit query must match the oracle exactly.
      const auto amount = rng.uniform(1, total);
      const auto d = rng.uniform(1, std::max<Duration>(1, horizon / 3));
      const auto after = rng.uniform(0, horizon - 1);
      const TimePoint want = oracle.earliest(after, d, amount);
      auto got = plan.avail_time_first(after, d, amount);
      if (want < 0) {
        ASSERT_FALSE(got) << "step " << step << " after=" << after
                          << " d=" << d << " amount=" << amount;
      } else {
        ASSERT_TRUE(got) << "step " << step;
        ASSERT_EQ(*got, want) << "step " << step << " after=" << after
                              << " d=" << d << " amount=" << amount;
      }
    }
    // Per-step deep validation: catch structural corruption at the
    // mutation that introduced it, not dozens of steps later.
    ASSERT_TRUE(plan.validate()) << "step " << step;
  }
  ASSERT_TRUE(plan.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerOracleTest,
    ::testing::Values(Params{1, 8, 64, 1500}, Params{2, 1, 32, 1200},
                      Params{3, 128, 200, 1500}, Params{4, 16, 500, 1200},
                      Params{5, 3, 16, 2000}, Params{6, 64, 1000, 800},
                      Params{7, 2, 128, 1500}, Params{8, 32, 48, 1500}));

TEST(PlannerProperty, ResizeInterleavedWithChurn) {
  // Elastic capacity (paper §5.5): grow/shrink the pool mid-stream; the
  // planner must agree with an oracle that re-bases its totals.
  util::Rng rng(31337);
  constexpr Duration kHorizon = 128;
  std::int64_t total = 16;
  Planner plan(0, kHorizon, total, "res");
  TimelineOracle oracle(0, kHorizon, 64);  // oracle uses a fixed max total
  // Track "virtual" capacity: the oracle's avail = 64 - used; the planner's
  // avail = total - used. Compare through used = 64 - oracle_avail.
  struct Live {
    SpanId id;
    TimePoint start;
    Duration d;
    std::int64_t amount;
  };
  std::vector<Live> live;
  for (int step = 0; step < 1500; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.08) {
      const std::int64_t next_total = rng.uniform(1, 64);
      auto st = plan.resize_total(next_total);
      // The oracle knows current peak usage: shrink below it must fail.
      std::int64_t peak = 0;
      for (TimePoint t = 0; t < kHorizon; ++t) {
        peak = std::max(peak, 64 - oracle.avail_at(t));
      }
      ASSERT_EQ(static_cast<bool>(st), next_total >= peak)
          << "step " << step << " next_total=" << next_total
          << " peak=" << peak;
      if (st) total = next_total;
    } else if (dice < 0.2) {
      // Earliest fit after resizes: `amount` free on the planner is
      // `amount + 64 - total` free on the oracle.
      const auto amount = rng.uniform(1, total);
      const auto d = rng.uniform(1, 32);
      const auto after = rng.uniform(0, kHorizon - 1);
      const TimePoint want = oracle.earliest(after, d, amount + 64 - total);
      auto got = plan.avail_time_first(after, d, amount);
      if (want < 0) {
        ASSERT_FALSE(got) << "step " << step << " after=" << after
                          << " d=" << d << " amount=" << amount;
      } else {
        ASSERT_TRUE(got) << "step " << step;
        ASSERT_EQ(*got, want) << "step " << step << " after=" << after
                              << " d=" << d << " amount=" << amount;
      }
    } else if (dice < 0.55 || live.empty()) {
      const auto amount = rng.uniform(1, total);
      const auto d = rng.uniform(1, 32);
      const auto start = rng.uniform(0, kHorizon - d);
      const std::int64_t oracle_free_min = [&] {
        std::int64_t m = INT64_MAX;
        for (TimePoint t = start; t < start + d; ++t) {
          m = std::min(m, total - (64 - oracle.avail_at(t)));
        }
        return m;
      }();
      auto r = plan.add_span(start, d, amount);
      ASSERT_EQ(static_cast<bool>(r), amount <= oracle_free_min)
          << "step " << step;
      if (r) {
        oracle.add(start, d, amount);
        live.push_back({*r, start, d, amount});
      }
    } else {
      const auto i = rng.index(live.size());
      ASSERT_TRUE(plan.rem_span(live[i].id));
      oracle.rem(live[i].start, live[i].d, live[i].amount);
      live[i] = live.back();
      live.pop_back();
    }
    // Per-step: resize + churn is exactly where tree rebuilds can go wrong.
    ASSERT_TRUE(plan.validate()) << "step " << step;
  }
}

// Earliest fit is one const query on both classes, so the writer's
// searches and a replica's read-only probes take the same path.
static_assert(requires(const Planner& p) {
  p.avail_time_first(TimePoint{0}, Duration{1}, std::int64_t{1});
});
static_assert(requires(const PlannerMulti& m, Counts c) {
  m.avail_time_first(TimePoint{0}, Duration{1}, c);
});

TEST(PlannerStress, ManySpansThenDrainToEmpty) {
  util::Rng rng(99);
  Planner plan(0, util::kTwelveHours, 128, "res");
  std::vector<SpanId> ids;
  for (int i = 0; i < 2000; ++i) {
    const auto amount = rng.uniform(1, 128);
    const auto d = rng.uniform(1, 3600);
    const auto start = rng.uniform(0, util::kTwelveHours - d);
    auto r = plan.add_span(start, d, amount);
    if (r) ids.push_back(*r);
  }
  EXPECT_GT(ids.size(), 100u);
  EXPECT_TRUE(plan.validate());
  rng.shuffle(ids);
  for (SpanId id : ids) ASSERT_TRUE(plan.rem_span(id));
  EXPECT_EQ(plan.span_count(), 0u);
  EXPECT_EQ(plan.point_count(), 1u);
  EXPECT_EQ(*plan.avail_at(1000), 128);
  EXPECT_TRUE(plan.validate());
}

}  // namespace
}  // namespace fluxion::planner
