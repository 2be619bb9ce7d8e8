// Ablation (DESIGN.md §6): what pruning filters + Scheduler-Driven Filter
// Updates buy during reservation-heavy scheduling.
//
// Workload: a quartz-like system scheduled with conservative backfilling —
// every job is allocated or reserved, so each match probes candidate start
// times. With filters, the root PlannerMulti fast-forwards over times
// where the aggregate cannot fit and rack filters prune full subtrees;
// without them, every probe walks the graph.
//
// Environment:
//   FLUXION_SDFU_RACKS    — rack count (default 10)
//   FLUXION_SDFU_JOBS     — trace length (default 150)
//   FLUXION_BENCH_METRICS — write the obs counter/histogram catalogue as
//                           JSON to this file (enables collection, which
//                           perturbs the timings slightly)
//
// With metrics on, the filtered run also reports planner span adds per
// committed job (obs span adds over the QueueStats jobs started or reserved)
// and nodes per committed job (node vertices in those jobs' resources).
// Their ratio is the commit cost per node: a whole-node job books one
// schedule span per node (its cores are covered, see docs/matching.md),
// so it stays near 1 plus the per-job shared-use and filter spans.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "bench_json.hpp"
#include "core/resource_query.hpp"
#include "grug/recipes.hpp"
#include "obs/metrics.hpp"
#include "queue/job_queue.hpp"
#include "sim/workload.hpp"

namespace {
using namespace fluxion;

struct Run {
  double seconds = 0;
  std::uint64_t visits = 0;
  std::uint64_t pruned = 0;
  std::uint64_t attempts = 0;
  std::uint64_t reserved = 0;
  std::uint64_t committed = 0;  // jobs started or reserved (QueueStats)
  std::uint64_t span_adds = 0;  // planner span adds (obs)
  std::uint64_t nodes = 0;      // node vertices in committed jobs
};

Run run_once(bool prune, int racks, const std::vector<sim::TraceJob>& trace) {
  auto rq = core::ResourceQuery::create(grug::recipes::quartz(prune, racks));
  if (!rq) std::exit(1);
  queue::JobQueue q((*rq)->traverser(),
                    queue::QueuePolicy::conservative_backfill);
  for (const auto& tj : trace) {
    auto js = sim::trace_jobspec(tj, 36);
    if (!js) std::exit(1);
    q.submit(*js);
  }
  const auto& m = obs::monitor();
  auto committed = [&q] {
    return q.stats().started_immediately + q.stats().reservations_made;
  };
  const std::uint64_t committed0 = committed();
  const std::uint64_t spans0 = m.planner_span_adds.value();
  const auto t0 = std::chrono::steady_clock::now();
  q.schedule();
  const auto t1 = std::chrono::steady_clock::now();
  Run r;
  r.committed = committed() - committed0;
  r.span_adds = m.planner_span_adds.value() - spans0;
  const auto& g = (*rq)->graph();
  const auto node_type = g.find_type("node");
  for (queue::JobId id = 1; const queue::Job* job = q.find(id); ++id) {
    if (job->state != queue::JobState::running &&
        job->state != queue::JobState::reserved) {
      continue;
    }
    for (const auto& ru : job->resources) {
      if (g.vertex(ru.vertex).type == node_type) ++r.nodes;
    }
  }
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.visits = (*rq)->traverser().stats().visits;
  r.pruned = (*rq)->traverser().stats().pruned;
  r.attempts = (*rq)->traverser().stats().match_attempts;
  r.reserved = q.stats().reserved;
  return r;
}

}  // namespace

int main() {
  int racks = 10;
  int jobs = 150;
  if (const char* env = std::getenv("FLUXION_SDFU_RACKS")) {
    racks = std::max(1, std::atoi(env));
  }
  if (const char* env = std::getenv("FLUXION_SDFU_JOBS")) {
    jobs = std::max(1, std::atoi(env));
  }
  const char* metrics_path = std::getenv("FLUXION_BENCH_METRICS");
  if (metrics_path != nullptr) obs::set_enabled(true);

  sim::TraceConfig cfg;
  cfg.job_count = static_cast<std::size_t>(jobs);
  cfg.max_nodes = std::min<std::int64_t>(128, racks * 62);
  util::Rng rng(99);
  const auto trace = sim::generate_trace(cfg, rng);

  std::printf("# SDFU / pruning ablation: %d nodes, %d jobs, conservative "
              "backfilling\n",
              racks * 62, jobs);
  std::printf("%-10s %12s %14s %12s %12s %12s\n", "filters", "total[s]",
              "visits", "pruned", "attempts", "reserved");
  const Run off = run_once(false, racks, trace);
  const Run on = run_once(true, racks, trace);
  std::printf("%-10s %12.3f %14llu %12llu %12llu %12llu\n", "off",
              off.seconds, static_cast<unsigned long long>(off.visits),
              static_cast<unsigned long long>(off.pruned),
              static_cast<unsigned long long>(off.attempts),
              static_cast<unsigned long long>(off.reserved));
  std::printf("%-10s %12.3f %14llu %12llu %12llu %12llu\n", "on", on.seconds,
              static_cast<unsigned long long>(on.visits),
              static_cast<unsigned long long>(on.pruned),
              static_cast<unsigned long long>(on.attempts),
              static_cast<unsigned long long>(on.reserved));
  if (on.seconds > 0) {
    std::printf("\n# speedup from pruning + SDFU: %.2fx (visits: %.2fx "
                "fewer)\n",
                off.seconds / on.seconds,
                on.visits > 0 ? static_cast<double>(off.visits) /
                                    static_cast<double>(on.visits)
                              : 0.0);
  }
  auto run_json = [](const Run& r) {
    return std::string("{\"seconds\":") + bench::Report::num(r.seconds) +
           ",\"visits\":" + std::to_string(r.visits) +
           ",\"pruned\":" + std::to_string(r.pruned) +
           ",\"attempts\":" + std::to_string(r.attempts) +
           ",\"reserved\":" + std::to_string(r.reserved) +
           ",\"committed\":" + std::to_string(r.committed) +
           ",\"span_adds\":" + std::to_string(r.span_adds) +
           ",\"nodes\":" + std::to_string(r.nodes) + "}";
  };
  bench::Report rep("sdfu");
  rep.config_int("racks", racks);
  rep.config_int("jobs", jobs);
  rep.matches_per_s(on.seconds > 0
                        ? static_cast<double>(on.attempts) / on.seconds
                        : 0.0);
  rep.ratio("prune_speedup", on.seconds > 0 ? off.seconds / on.seconds : 0.0);
  rep.ratio("visit_ratio", on.visits > 0
                               ? static_cast<double>(off.visits) /
                                     static_cast<double>(on.visits)
                               : 0.0);
  rep.extra("filters_off", run_json(off));
  rep.extra("filters_on", run_json(on));
  if (obs::enabled() && on.committed > 0 && on.nodes > 0) {
    const double spans_per_job = static_cast<double>(on.span_adds) /
                                 static_cast<double>(on.committed);
    const double nodes_per_job = static_cast<double>(on.nodes) /
                                 static_cast<double>(on.committed);
    std::printf("# filters on: %.1f planner span adds per committed job, "
                "%.1f nodes per job (%.2f spans per node)\n",
                spans_per_job, nodes_per_job, spans_per_job / nodes_per_job);
    rep.ratio("span_adds_per_job", spans_per_job);
    rep.ratio("nodes_per_job", nodes_per_job);
    rep.ratio("span_adds_per_node", spans_per_job / nodes_per_job);
  }
  if (obs::enabled()) rep.extra("obs", obs::monitor().json());
  if (!rep.write()) return 2;
  return 0;
}
