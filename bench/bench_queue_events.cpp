// Event-dispatch and satisfiability-cache bench (queue hot loops).
//
// Replays a backlog-heavy trace (everything arrives at t=0) through the
// EASY-backfill queue twice — satisfiability cache off, then on — over
// identical systems and traces, and reports the match-attempt and
// event-dispatch counters. The interesting numbers are ratios, not
// wall-clock: `match_ratio` (cache-off matches / cache-on matches) is the
// wasted-retry work the cache eliminates (`match_dominated` counts the
// skips a larger or longer request took from a smaller failure), and
// `pops_per_event` (event-heap pops / events fired) is the dispatch
// overhead of the lazy-deletion heap (1.0 = no stale entries; the
// pre-heap implementation rescanned every job per event, i.e. O(jobs)
// "pops").
//
// The two runs must place every job identically — the cache only skips
// matches that are guaranteed to fail — and this is checked here job by
// job (exit 3 on divergence; the differential property test covers the
// same invariant across policies and dynamic scenarios).
//
// A third run replays the same backlog under first-match traversal and
// reports `fm_visit_ratio` (scored visits / first-match visits): the
// traversal-work saving from stopping at the first feasible slot instead
// of collecting and ranking every candidate. CI gates on this ratio —
// a counter, not wall-clock, so it is stable on shared runners.
//
// `peak_rss_mb` is the process's peak resident set (getrusage ru_maxrss)
// over the three runs, i.e. the largest engine plus its backlog. CI gates
// it too, so per-planner state that grows with the graph shows up.
//
// Environment:
//   FLUXION_QE_RACKS      — rack count (default 2)
//   FLUXION_QE_JOBS       — trace length (default 10000)
//   FLUXION_QE_QUANTUM    — duration quantum in seconds (default 3600);
//                           production-style round walltimes concentrate
//                           the trace on repeated request shapes
//   FLUXION_BENCH_METRICS — write a JSON summary (both runs' counters,
//                           the ratios, and the obs catalogue) to this
//                           file; enables obs collection
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/resource_query.hpp"
#include "grug/recipes.hpp"
#include "obs/metrics.hpp"
#include "queue/job_queue.hpp"
#include "sim/workload.hpp"

namespace {
using namespace fluxion;

struct RunResult {
  queue::QueueStats stats;
  double seconds = 0;
  std::uint64_t visits = 0;            // traverser vertex visits
  std::uint64_t first_match_stops = 0; // early walk unwinds (fm mode only)
  std::vector<std::pair<traverser::JobId, util::TimePoint>> placements;
};

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) return std::max(1, std::atoi(env));
  return fallback;
}

bool run_once(int racks, const std::vector<sim::TraceJob>& trace,
              bool cache_on, traverser::TraversalMode mode, RunResult& out) {
  auto rq = core::ResourceQuery::create(grug::recipes::quartz(true, racks));
  if (!rq) return false;
  queue::JobQueue q((*rq)->traverser(),
                    queue::QueuePolicy::easy_backfill);
  q.set_match_cache(cache_on);
  q.set_traversal_mode(mode);
  std::vector<traverser::JobId> ids;
  for (const auto& tj : trace) {
    auto js = sim::trace_jobspec(tj, 36);
    if (!js) return false;
    ids.push_back(q.submit(*js));
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (!q.run_to_completion()) return false;
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.stats = q.stats();
  out.visits = (*rq)->traverser().stats().visits;
  out.first_match_stops = (*rq)->traverser().stats().first_match_stops;
  for (const auto id : ids) {
    out.placements.emplace_back(id, q.find(id)->start_time);
  }
  return true;
}

void stats_json(std::string& out, const RunResult& r) {
  const auto& s = r.stats;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"match_calls\":%llu,\"match_skipped\":%llu,"
                "\"match_dominated\":%llu,"
                "\"cache_invalidations\":%llu,\"events_fired\":%llu,"
                "\"heap_pops\":%llu,\"visits\":%llu,"
                "\"first_match_stops\":%llu,\"seconds\":%.3f}",
                static_cast<unsigned long long>(s.match_calls),
                static_cast<unsigned long long>(s.match_skipped),
                static_cast<unsigned long long>(s.match_dominated),
                static_cast<unsigned long long>(s.cache_invalidations),
                static_cast<unsigned long long>(s.events_fired),
                static_cast<unsigned long long>(s.heap_pops),
                static_cast<unsigned long long>(r.visits),
                static_cast<unsigned long long>(r.first_match_stops),
                r.seconds);
  out += buf;
}

}  // namespace

int main() {
  const int racks = env_int("FLUXION_QE_RACKS", 2);
  const int jobs = env_int("FLUXION_QE_JOBS", 10000);
  const int quantum = env_int("FLUXION_QE_QUANTUM", 3600);
  const char* metrics_path = std::getenv("FLUXION_BENCH_METRICS");
  if (metrics_path != nullptr) obs::set_enabled(true);
  const std::int64_t nodes = static_cast<std::int64_t>(racks) * 62;

  sim::TraceConfig cfg;
  cfg.job_count = static_cast<std::size_t>(jobs);
  cfg.max_nodes = std::min<std::int64_t>(64, nodes);
  cfg.duration_quantum = quantum;
  util::Rng rng(20240601);
  const auto trace = sim::generate_trace(cfg, rng);

  std::printf("# Queue events: %lld nodes, %d jobs (backlog at t=0), "
              "EASY backfill, %ds walltime quantum\n",
              static_cast<long long>(nodes), jobs, quantum);
  RunResult off, on, fm;
  if (!run_once(racks, trace, /*cache_on=*/false,
                traverser::TraversalMode::scored, off)) {
    return 1;
  }
  if (!run_once(racks, trace, /*cache_on=*/true,
                traverser::TraversalMode::scored, on)) {
    return 1;
  }
  if (off.placements != on.placements) {
    std::fprintf(stderr,
                 "bench_queue_events: PLACEMENT DIVERGENCE cache-on vs "
                 "cache-off — the cache is unsound\n");
    return 3;
  }
  // Third run: first-match traversal (cache on). Placements may
  // legitimately differ from scored mode — the interesting number is the
  // traverser-visit ratio, which the CI perf smoke gates on.
  if (!run_once(racks, trace, /*cache_on=*/true,
                traverser::TraversalMode::first_match, fm)) {
    return 1;
  }

  std::printf("%-12s %12s %12s %12s %12s %12s %14s %10s\n", "run",
              "matches", "skipped", "dominated", "events", "heap-pops",
              "trav-visits", "time[s]");
  for (const auto* r : {&off, &on, &fm}) {
    std::printf("%-12s %12llu %12llu %12llu %12llu %12llu %14llu %10.3f\n",
                r == &off ? "cache-off" : r == &on ? "cache-on" : "first-match",
                static_cast<unsigned long long>(r->stats.match_calls),
                static_cast<unsigned long long>(r->stats.match_skipped),
                static_cast<unsigned long long>(r->stats.match_dominated),
                static_cast<unsigned long long>(r->stats.events_fired),
                static_cast<unsigned long long>(r->stats.heap_pops),
                static_cast<unsigned long long>(r->visits), r->seconds);
  }
  const double match_ratio =
      on.stats.match_calls > 0
          ? static_cast<double>(off.stats.match_calls) /
                static_cast<double>(on.stats.match_calls)
          : 0.0;
  const double pops_per_event =
      on.stats.events_fired > 0
          ? static_cast<double>(on.stats.heap_pops) /
                static_cast<double>(on.stats.events_fired)
          : 0.0;
  const double fm_visit_ratio =
      fm.visits > 0
          ? static_cast<double>(on.visits) / static_cast<double>(fm.visits)
          : 0.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::printf("\nmatch_ratio     %.2fx fewer traversal matches with the "
              "cache\npops_per_event  %.2f heap pops per fired event "
              "(vs %d jobs rescanned per event before)\n"
              "fm_visit_ratio  %.2fx fewer traverser visits with "
              "first-match (%llu early stops)\n"
              "peak_rss_mb     %.1f MiB peak resident set\n",
              match_ratio, pops_per_event, jobs, fm_visit_ratio,
              static_cast<unsigned long long>(fm.first_match_stops),
              peak_rss_mb);

  bench::Report rep("queue_events");
  rep.config_int("racks", racks);
  rep.config_int("jobs", jobs);
  rep.config_int("quantum", quantum);
  rep.config_int("nodes", nodes);
  rep.matches_per_s(on.seconds > 0
                        ? static_cast<double>(on.stats.match_calls) /
                              on.seconds
                        : 0.0);
  rep.ratio("match_ratio", match_ratio);
  rep.ratio("pops_per_event", pops_per_event);
  rep.ratio("fm_visit_ratio", fm_visit_ratio);
  // The CI perf gates read these keys; the legacy top-level jobs/nodes
  // knobs moved into "config".
  std::string runs;
  stats_json(runs, off);
  rep.extra("cache_off", std::move(runs));
  runs.clear();
  stats_json(runs, on);
  rep.extra("cache_on", std::move(runs));
  runs.clear();
  stats_json(runs, fm);
  rep.extra("first_match", std::move(runs));
  rep.extra("peak_rss_mb", bench::Report::num(peak_rss_mb));
  if (obs::enabled()) rep.extra("obs", obs::monitor().json());
  if (!rep.write()) return 2;
  return 0;
}
