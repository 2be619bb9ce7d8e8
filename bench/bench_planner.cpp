// Figure 6b (paper §6.2): Planner query performance versus pre-populated
// load, plus an ablation of the augmented time tree's earliest-fit
// descent against a linear sweep.
//
// Setup mirrors the paper: a single Planner with 128 units of an unnamed
// resource; pre-populated spans drawn as <r, d> with r ~ U[1,128] and
// d ~ U[1, 43200] (12 h), placed at their earliest feasible time
// (conservative backfilling). Queries:
//   * SatAt      — can <r, 1> be satisfied at a random time t?
//   * SatDuring  — can <r, d> be satisfied at a random time t?
//   * EarliestAt — earliest fit for <r, 1>?
//   * AddRemChurn — claim <1, 1> at a random time t, then release it.
// r sweeps powers of two from 1 to 128; the span load sweeps 10^2..10^6.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <queue>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "planner/planner.hpp"
#include "util/rng.hpp"

namespace {

using fluxion::planner::Planner;
using fluxion::util::Duration;
using fluxion::util::Rng;
using fluxion::util::TimePoint;

constexpr std::int64_t kTotal = 128;
constexpr Duration kMaxDuration = 43200;  // 12 hours

/// Horizon scaled to the span load (packed makespan for N spans averages
/// N x 64.5 units x 21600 ticks / 128 units ~ N x 10,886 ticks).
Duration horizon_for(std::int64_t n) {
  return std::max<Duration>(4 * kMaxDuration, n * 22000);
}

struct PlacedSpan {
  TimePoint start;
  Duration d;
  std::int64_t r;
};

struct Loaded {
  std::unique_ptr<Planner> plan;
  std::vector<PlacedSpan> spans;
  TimePoint frontier = 0;  // end of the populated region
};

/// Pre-populate `n` spans conservatively backfilled (paper §6.2): each
/// span starts at the earliest instant its amount fits given everything
/// placed before it — computed with an O(N log N) event-heap packing so
/// building 10^6 spans stays cheap; the resulting timeline is saturated
/// up to the frontier, which is what makes the EarliestAt queries
/// non-trivial. Shared across benchmark repetitions.
const Loaded& loaded_planner(std::int64_t n) {
  static std::map<std::int64_t, Loaded> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  Loaded l;
  l.plan = std::make_unique<Planner>(0, horizon_for(n), kTotal, "unnamed");
  Rng rng(20231112);
  // Min-heap of (end time, amount) for spans active at the packing cursor.
  using Active = std::pair<TimePoint, std::int64_t>;
  std::priority_queue<Active, std::vector<Active>, std::greater<>> active;
  TimePoint cursor = 0;
  std::int64_t in_use = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t r = rng.uniform(1, kTotal);
    const Duration d = rng.uniform(1, kMaxDuration);
    while (in_use + r > kTotal) {
      cursor = std::max(cursor, active.top().first);
      // Release everything ending at or before the new cursor.
      while (!active.empty() && active.top().first <= cursor) {
        in_use -= active.top().second;
        active.pop();
      }
    }
    auto span = l.plan->add_span(cursor, d, r);
    benchmark::DoNotOptimize(span);
    l.spans.push_back({cursor, d, r});
    active.emplace(cursor + d, r);
    in_use += r;
    l.frontier = std::max(l.frontier, cursor + d);
  }
  return cache.emplace(n, std::move(l)).first->second;
}

void BM_SatAt(benchmark::State& state) {
  const auto& l = loaded_planner(state.range(0));
  const std::int64_t r = state.range(1);
  Rng rng(7);
  for (auto _ : state) {
    const TimePoint t = rng.uniform(0, l.frontier);
    benchmark::DoNotOptimize(l.plan->avail_during(t, 1, r));
  }
  state.SetLabel("spans=" + std::to_string(state.range(0)) +
                 " r=" + std::to_string(r));
}

void BM_SatDuring(benchmark::State& state) {
  const auto& l = loaded_planner(state.range(0));
  const std::int64_t r = state.range(1);
  Rng rng(11);
  for (auto _ : state) {
    const TimePoint t = rng.uniform(0, l.frontier);
    const Duration d = rng.uniform(1, kMaxDuration);
    benchmark::DoNotOptimize(l.plan->avail_during(t, d, r));
  }
  state.SetLabel("spans=" + std::to_string(state.range(0)) +
                 " r=" + std::to_string(r));
}

void BM_EarliestAt(benchmark::State& state) {
  const auto& l = loaded_planner(state.range(0));
  const std::int64_t r = state.range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l.plan->avail_time_first(0, 1, r));
  }
  state.SetLabel("spans=" + std::to_string(state.range(0)) +
                 " r=" + std::to_string(r));
}

void SpanSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {100, 1000, 10000, 100000, 1000000}) {
    for (std::int64_t r : {1, 8, 64, 128}) b->Args({n, r});
  }
}

// Each successful add materialises the span's endpoint points (a point
// lookup per endpoint) and the remove collects them again, so the loaded
// planner is left as it was found.
void BM_AddRemChurn(benchmark::State& state) {
  const auto& l = loaded_planner(state.range(0));
  Rng rng(13);
  std::int64_t added = 0;
  for (auto _ : state) {
    const TimePoint t = rng.uniform(0, l.frontier);
    if (auto id = l.plan->add_span(t, 1, 1)) {
      benchmark::DoNotOptimize(l.plan->rem_span(*id));
      ++added;
    }
  }
  state.counters["added"] = benchmark::Counter(
      static_cast<double>(added), benchmark::Counter::kAvgIterations);
  state.SetLabel("spans=" + std::to_string(state.range(0)));
}

BENCHMARK(BM_SatAt)->Apply(SpanSweep);
BENCHMARK(BM_SatDuring)->Apply(SpanSweep);
BENCHMARK(BM_EarliestAt)->Apply(SpanSweep);
BENCHMARK(BM_AddRemChurn)->Arg(100)->Arg(10000)->Arg(1000000);

// --- Ablation: augmented time tree vs linear sweep --------------------------
//
// The honest baseline keeps the same span set in a sorted point timeline
// and finds the earliest fit by sweeping left to right (what a planner
// without the subtree minima must do).
struct LinearTimeline {
  // time -> delta of in-use amount
  std::map<TimePoint, std::int64_t> deltas;

  void add(TimePoint t, Duration d, std::int64_t r) {
    deltas[t] += r;
    deltas[t + d] -= r;
  }

  TimePoint earliest_fit(std::int64_t r, Duration d) const {
    // Left-to-right sweep: `candidate` is the earliest start such that no
    // processed point in [candidate, now) violates in_use + r <= total.
    std::int64_t in_use = 0;
    TimePoint candidate = 0;
    for (auto it = deltas.begin(); it != deltas.end(); ++it) {
      if (it->first >= candidate + d) return candidate;
      in_use += it->second;
      if (in_use + r > kTotal) {
        auto next = std::next(it);
        // Usage stays violating until (at least) the next point.
        candidate = next == deltas.end() ? it->first + 1 : next->first;
      }
    }
    return candidate;
  }
};

void BM_EarliestAtLinearBaseline(benchmark::State& state) {
  static std::map<std::int64_t, LinearTimeline> cache;
  const std::int64_t n = state.range(0);
  auto it = cache.find(n);
  if (it == cache.end()) {
    // Mirror the exact same spans the Planner holds.
    LinearTimeline tl;
    for (const PlacedSpan& s : loaded_planner(n).spans) {
      tl.add(s.start, s.d, s.r);
    }
    it = cache.emplace(n, std::move(tl)).first;
  }
  const std::int64_t r = state.range(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(it->second.earliest_fit(r, 1));
  }
  state.SetLabel("spans=" + std::to_string(n) + " r=" + std::to_string(r) +
                 " (linear baseline)");
}

BENCHMARK(BM_EarliestAtLinearBaseline)
    ->Args({100, 128})
    ->Args({1000, 128})
    ->Args({10000, 128})
    ->Args({100000, 128})
    ->Args({1000000, 128});

}  // namespace

// Expanded BENCHMARK_MAIN so the run also emits the standard BENCH
// envelope; the per-case timings live in google-benchmark's own output
// (--benchmark_out / --benchmark_format for machine-readable form).
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  fluxion::bench::Report rep("planner");
  rep.config_int("total_units", kTotal);
  rep.config_int("max_duration_s", kMaxDuration);
  rep.extra("note",
            "\"per-case timings in google-benchmark output; pass "
            "--benchmark_out=FILE for machine-readable results\"");
  if (!rep.write()) return 2;
  return 0;
}
