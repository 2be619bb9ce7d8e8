// fluxion-sim: batch scheduling simulator.
//
// Runs a trace through a system under a chosen match policy and queue
// discipline on the simulated clock, then emits a per-job CSV schedule
// and a summary — the workhorse for scheduling studies on top of the
// resource model (paper §6.3's methodology as a reusable tool).
//
// Usage:
//   fluxion-sim --grug SYSTEM.grug --trace TRACE.txt [--cores N]
//               [--policy low-id|high-id|locality|variation-aware]
//               [--queue fcfs|easy|conservative|hybrid]
//               [--reservation-depth K] # bound on simultaneous backfill
//                                       # reservations (0 = unbounded)
//               [--first-match]         # first-match traversal: stop at the
//                                       # first feasible slot, skip scoring
//               [--perf-classes SEED]   # stamp Eq. 1 classes on nodes
//               [--arrivals MEAN]       # Poisson arrivals (online replay)
//               [--csv FILE]            # per-job schedule (default stdout)
//               [--metrics FILE]        # counter/histogram catalogue (JSON)
//               [--no-match-cache]      # disable the queue's
//                                       # satisfiability cache (A/B runs)
//               [--trace-out FILE]      # job lifecycle + match phases as
//                                       # Chrome trace-event JSON (Perfetto)
//               [--eventlog FILE]       # per-job lifecycle eventlog (JSONL,
//                                       # one object per event; sim-time
//                                       # stamps, byte-identical with the
//                                       # cache on or off)
//               [--metrics-prom FILE]   # counters in Prometheus text
//                                       # exposition format
//               [--hier K]              # federated mode: route jobs across
//                                       # K child instances (1 = flat
//                                       # degenerate federation)
//               [--levels N]            # grant nesting depth; leaves = K^N
//               [--route POLICY]        # round-robin|least-loaded|locality
//               [--steal-threshold X]   # rebalance when max backlog/node >
//                                       # X * min backlog/node (0 = off)
//               [--steal-batch N]       # max jobs moved per steal pass
//               [--nodes-per-child N]   # whole nodes granted per leaf
//                                       # (0 = floor(total / leaves))
//               [--snapshot-out FILE]   # write a binary engine snapshot at
//                                       # the first arrival batch after
//                                       # --snapshot-at (flat engine only)
//               [--snapshot-at T]       # checkpoint time for --snapshot-out
//                                       # (default 0)
//               [--warm-start FILE]     # restore graph+planners+queue from
//                                       # a snapshot and replay the rest of
//                                       # the trace/scenario; the snapshot's
//                                       # policy/queue/cache settings win
//                                       # over the corresponding flags
//
// Traces may carry a third per-line field (arrival time); with arrivals —
// from the file or --arrivals — jobs are submitted online on the
// simulated clock instead of all at once.
//
// --scenario FILE (instead of --trace) replays a dynamic-resource
// scenario: trace lines mixed with timed '@ TIME status|grow|shrink ...'
// events (see src/sim/scenario.hpp). Grow events name GRUG recipe files
// resolved relative to the scenario file.
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/resource_query.hpp"
#include "dynamic/dynamic.hpp"
#include "grug/grug.hpp"
#include "hier/federation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "queue/job_queue.hpp"
#include "sim/fed_replay.hpp"
#include "sim/perf_classes.hpp"
#include "sim/scenario.hpp"
#include "sim/utilization.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using namespace fluxion;

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

/// Write `text` to `path`; false, after saying so on stderr, when the
/// file cannot be opened.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fluxion-sim: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --grug FILE (--trace FILE | --scenario FILE) [--cores N]\n"
      "          [--policy NAME]\n"
      "          [--queue fcfs|easy|conservative|hybrid]\n"
      "          [--reservation-depth K] [--first-match]\n"
      "          [--perf-classes SEED]\n"
      "          [--arrivals MEAN] [--csv FILE] [--util FILE]\n"
      "          [--metrics FILE] [--trace-out FILE] [--no-match-cache]\n"
      "          [--eventlog FILE] [--metrics-prom FILE]\n"
      "          [--hier K] [--levels N] [--route POLICY]\n"
      "          [--steal-threshold X] [--steal-batch N]\n"
      "          [--nodes-per-child N]\n"
      "          [--snapshot-out FILE] [--snapshot-at T]\n"
      "          [--warm-start FILE]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grug_path;
  std::string trace_path;
  std::string scenario_path;
  std::string policy = "low-id";
  std::string queue_name = "conservative";
  std::string csv_path;
  std::string util_path;
  std::string metrics_path;
  std::string trace_out_path;
  std::string eventlog_path;
  std::string prom_path;
  std::int64_t cores = 36;
  std::int64_t perf_seed = -1;
  double arrivals_mean = 0;
  bool match_cache = true;
  bool first_match = false;
  std::int64_t reservation_depth = 0;
  std::int64_t hier = 0;  // 0 = flat engine; >= 1 = federated mode
  std::int64_t levels = 1;
  std::string route_name = "round-robin";
  double steal_threshold = 0.0;
  std::int64_t steal_batch = 4;
  std::int64_t nodes_per_child = 0;
  std::string snapshot_out;
  std::int64_t snapshot_at = 0;
  std::string warm_start_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--grug") {
      if (const char* v = next()) grug_path = v;
    } else if (arg == "--trace") {
      if (const char* v = next()) trace_path = v;
    } else if (arg == "--scenario") {
      if (const char* v = next()) scenario_path = v;
    } else if (arg == "--cores") {
      if (const char* v = next()) cores = std::atoll(v);
    } else if (arg == "--policy") {
      if (const char* v = next()) policy = v;
    } else if (arg == "--queue") {
      if (const char* v = next()) queue_name = v;
    } else if (arg == "--perf-classes") {
      if (const char* v = next()) perf_seed = std::atoll(v);
    } else if (arg == "--arrivals") {
      if (const char* v = next()) arrivals_mean = std::atof(v);
    } else if (arg == "--csv") {
      if (const char* v = next()) csv_path = v;
    } else if (arg == "--util") {
      if (const char* v = next()) util_path = v;
    } else if (arg == "--metrics") {
      if (const char* v = next()) metrics_path = v;
    } else if (arg == "--trace-out") {
      if (const char* v = next()) trace_out_path = v;
    } else if (arg == "--eventlog") {
      if (const char* v = next()) eventlog_path = v;
    } else if (arg == "--metrics-prom") {
      if (const char* v = next()) prom_path = v;
    } else if (arg == "--no-match-cache") {
      match_cache = false;
    } else if (arg == "--first-match") {
      first_match = true;
    } else if (arg == "--reservation-depth") {
      if (const char* v = next()) reservation_depth = std::atoll(v);
    } else if (arg == "--hier") {
      if (const char* v = next()) hier = std::atoll(v);
    } else if (arg == "--levels") {
      if (const char* v = next()) levels = std::atoll(v);
    } else if (arg == "--route") {
      if (const char* v = next()) route_name = v;
    } else if (arg == "--steal-threshold") {
      if (const char* v = next()) steal_threshold = std::atof(v);
    } else if (arg == "--steal-batch") {
      if (const char* v = next()) steal_batch = std::atoll(v);
    } else if (arg == "--nodes-per-child") {
      if (const char* v = next()) nodes_per_child = std::atoll(v);
    } else if (arg == "--snapshot-out") {
      if (const char* v = next()) snapshot_out = v;
    } else if (arg == "--snapshot-at") {
      if (const char* v = next()) snapshot_at = std::atoll(v);
    } else if (arg == "--warm-start") {
      if (const char* v = next()) warm_start_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if ((grug_path.empty() && warm_start_path.empty()) ||
      trace_path.empty() == scenario_path.empty() ||
      cores < 1 || reservation_depth < 0 || hier < 0 || levels < 1 ||
      steal_batch < 1 || nodes_per_child < 0 || snapshot_at < 0) {
    return usage(argv[0]);
  }
  if (!warm_start_path.empty() &&
      (hier > 0 || perf_seed >= 0 || !snapshot_out.empty())) {
    std::fprintf(stderr,
                 "fluxion-sim: --warm-start cannot be combined with --hier, "
                 "--perf-classes, or --snapshot-out\n");
    return 2;
  }
  if (!snapshot_out.empty() && hier > 0) {
    std::fprintf(stderr,
                 "fluxion-sim: --snapshot-out needs a flat engine (no "
                 "--hier)\n");
    return 2;
  }
  queue::QueuePolicy qp;
  if (queue_name == "fcfs") {
    qp = queue::QueuePolicy::fcfs;
  } else if (queue_name == "easy") {
    qp = queue::QueuePolicy::easy_backfill;
  } else if (queue_name == "conservative") {
    qp = queue::QueuePolicy::conservative_backfill;
  } else if (queue_name == "hybrid") {
    qp = queue::QueuePolicy::hybrid_backfill;
  } else {
    return usage(argv[0]);
  }

  bool ok = false;
  std::string grug_text;
  if (warm_start_path.empty()) {
    grug_text = read_file(grug_path, ok);
    if (!ok) {
      std::fprintf(stderr, "fluxion-sim: cannot read %s\n", grug_path.c_str());
      return 2;
    }
  }
  const std::string& jobs_path =
      scenario_path.empty() ? trace_path : scenario_path;
  const std::string jobs_text = read_file(jobs_path, ok);
  if (!ok) {
    std::fprintf(stderr, "fluxion-sim: cannot read %s\n", jobs_path.c_str());
    return 2;
  }
  sim::Scenario scenario;
  if (scenario_path.empty()) {
    auto trace = sim::parse_trace(jobs_text);
    if (!trace) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   trace.error().message.c_str());
      return 2;
    }
    scenario.jobs = std::move(*trace);
  } else {
    auto parsed = sim::parse_scenario(jobs_text);
    if (!parsed) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   parsed.error().message.c_str());
      return 2;
    }
    scenario = std::move(*parsed);
  }
  std::vector<sim::TraceJob>& jobs = scenario.jobs;

  if (hier > 0) {
    // Federated mode: partition the machine into child instances and
    // route the workload through a hier::Federation instead of one flat
    // queue. Shares the trace/scenario front-end and the CSV/eventlog
    // back-ends; the CSV gains a trailing "member" column.
    if (perf_seed >= 0 || !util_path.empty()) {
      std::fprintf(stderr,
                   "fluxion-sim: --perf-classes/--util are not supported "
                   "with --hier\n");
      return 2;
    }
    const auto route = hier::parse_route_policy(route_name);
    if (!route) {
      std::fprintf(stderr, "fluxion-sim: unknown route policy '%s'\n",
                   route_name.c_str());
      return 2;
    }
    auto recipe = grug::parse(grug_text);
    if (!recipe) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   recipe.error().message.c_str());
      return 2;
    }
    if (arrivals_mean > 0) {
      util::Rng arr_rng(20231113);
      sim::stamp_poisson_arrivals(jobs, arrivals_mean, arr_rng);
    }
    if (!metrics_path.empty() || !prom_path.empty()) obs::set_enabled(true);
    if (!trace_out_path.empty()) obs::trace().set_enabled(true);

    hier::FederationConfig fcfg;
    fcfg.children = static_cast<std::size_t>(hier);
    fcfg.levels = static_cast<std::size_t>(levels);
    fcfg.route = *route;
    fcfg.queue_policy = qp;
    fcfg.nodes_per_leaf = nodes_per_child;
    fcfg.steal_threshold = steal_threshold;
    fcfg.steal_batch = static_cast<std::size_t>(steal_batch);
    fcfg.eventlog = !eventlog_path.empty();
    fcfg.match_cache = match_cache;
    fcfg.traversal_mode = first_match ? traverser::TraversalMode::first_match
                                      : traverser::TraversalMode::scored;
    fcfg.reservation_depth = static_cast<std::size_t>(reservation_depth);
    core::Options fopt;
    fopt.policy = policy;
    auto fed = hier::Federation::create(*recipe, fcfg, fopt);
    if (!fed) {
      std::fprintf(stderr, "fluxion-sim: %s\n", fed.error().message.c_str());
      return 2;
    }

    std::vector<hier::FedJobId> fed_ids;
    sim::FedScenarioResult fed_dyn;
    if (!scenario_path.empty()) {
      const auto slash = scenario_path.find_last_of('/');
      const std::string dir =
          slash == std::string::npos ? "" : scenario_path.substr(0, slash + 1);
      auto resolver =
          [&](const std::string& ref) -> util::Expected<std::string> {
        bool read_ok = false;
        std::string text = read_file(dir + ref, read_ok);
        if (!read_ok) text = read_file(ref, read_ok);
        if (!read_ok) {
          return util::Error{util::Errc::not_found,
                             "cannot read recipe '" + ref + "'"};
        }
        return text;
      };
      auto replayed = sim::replay_scenario(**fed, scenario, cores, resolver);
      if (!replayed) {
        std::fprintf(stderr, "fluxion-sim: %s\n",
                     replayed.error().message.c_str());
        return 2;
      }
      fed_ids = replayed->ids;
      fed_dyn = std::move(*replayed);
    } else {
      auto replayed = sim::replay_trace(**fed, jobs, cores);
      if (!replayed) {
        std::fprintf(stderr, "fluxion-sim: %s\n",
                     replayed.error().message.c_str());
        return 2;
      }
      fed_ids = std::move(replayed->ids);
    }

    FILE* csv = stdout;
    if (!csv_path.empty()) {
      csv = std::fopen(csv_path.c_str(), "w");
      if (csv == nullptr) {
        std::fprintf(stderr, "fluxion-sim: cannot write %s\n",
                     csv_path.c_str());
        return 2;
      }
    }
    std::fprintf(
        csv, "job,nodes,duration,state,start,end,wait,fom,match_ms,member\n");
    std::size_t completed = 0;
    util::TimePoint makespan = 0;
    for (std::size_t i = 0; i < fed_ids.size(); ++i) {
      const auto* ref = (*fed)->find(fed_ids[i]);
      const queue::Job* job = (*fed)->find_job(fed_ids[i]);
      if (ref == nullptr || job == nullptr) continue;
      if (job->state == queue::JobState::completed) {
        ++completed;
        makespan = std::max(makespan, job->end_time);
      }
      std::fprintf(csv, "%lld,%lld,%lld,%s,%lld,%lld,%lld,%d,%.3f,%s\n",
                   static_cast<long long>(fed_ids[i]),
                   static_cast<long long>(jobs[i].nodes),
                   static_cast<long long>(jobs[i].duration),
                   queue::job_state_name(job->state),
                   static_cast<long long>(job->start_time),
                   static_cast<long long>(job->end_time),
                   static_cast<long long>(
                       job->start_time >= 0
                           ? job->start_time - job->submit_time
                           : -1),
                   -1, job->match_seconds * 1e3,
                   (*fed)->member(ref->member).name.c_str());
    }
    if (csv != stdout) std::fclose(csv);

    if (!eventlog_path.empty() &&
        !write_file(eventlog_path, (*fed)->eventlog_jsonl())) {
      return 2;
    }
    if (!metrics_path.empty() &&
        !write_file(metrics_path, obs::monitor().json() + "\n")) {
      return 2;
    }
    if (!prom_path.empty() &&
        !write_file(prom_path, obs::monitor().prometheus())) {
      return 2;
    }
    if (!trace_out_path.empty() &&
        !write_file(trace_out_path, obs::trace().chrome_json())) {
      return 2;
    }

    const auto& fs = (*fed)->stats();
    std::fprintf(stderr,
                 "fluxion-sim: hier children=%lld levels=%lld route=%s | "
                 "%zu jobs, %zu completed, makespan %lld\n",
                 static_cast<long long>(hier), static_cast<long long>(levels),
                 hier::route_policy_name(*route), fed_ids.size(), completed,
                 static_cast<long long>(makespan));
    std::fprintf(stderr,
                 "fluxion-sim: %llu routed, %llu escalated, %llu stolen "
                 "(%llu steal passes)\n",
                 static_cast<unsigned long long>(fs.routed),
                 static_cast<unsigned long long>(fs.escalated),
                 static_cast<unsigned long long>(fs.stolen),
                 static_cast<unsigned long long>(fs.steal_passes));
    for (std::size_t m = 0; m < (*fed)->member_count(); ++m) {
      const auto& mem = (*fed)->member(m);
      const auto mm = mem.queue->metrics();
      const auto& ms = mem.queue->stats();
      std::fprintf(stderr,
                   "fluxion-sim:   %-8s %lld nodes | %llu submitted, "
                   "%zu completed, %llu rejected | %llu matches\n",
                   mem.name.c_str(),
                   static_cast<long long>(mem.capacity_nodes),
                   static_cast<unsigned long long>(ms.submitted), mm.completed,
                   static_cast<unsigned long long>(ms.rejected),
                   static_cast<unsigned long long>(ms.match_calls));
    }
    if (!scenario_path.empty()) {
      std::fprintf(stderr,
                   "fluxion-sim: dyn events %zu status, %zu grow, %zu shrink\n",
                   fed_dyn.status_events, fed_dyn.grow_events,
                   fed_dyn.shrink_events);
    }
    return 0;
  }

  if (arrivals_mean > 0) {
    util::Rng arr_rng(20231113);
    sim::stamp_poisson_arrivals(jobs, arrivals_mean, arr_rng);
  }
  const bool online = std::any_of(
      jobs.begin(), jobs.end(),
      [](const sim::TraceJob& j) { return j.arrival != 0; });

  if (!metrics_path.empty() || !prom_path.empty()) obs::set_enabled(true);
  if (!trace_out_path.empty()) obs::trace().set_enabled(true);

  // Cold start: build graph + queue from GRUG and flags. Warm start:
  // restore everything (graph, planners, traverser claims, queue,
  // eventlog) from the snapshot, whose recorded policy/queue/cache
  // settings take precedence over the corresponding flags.
  std::unique_ptr<core::ResourceQuery> rq;
  std::optional<queue::JobQueue> cold_q;
  std::unique_ptr<snapshot::RestoredEngine> eng;
  if (!warm_start_path.empty()) {
    const std::string bytes = read_file(warm_start_path, ok);
    if (!ok) {
      std::fprintf(stderr, "fluxion-sim: cannot read %s\n",
                   warm_start_path.c_str());
      return 2;
    }
    auto loaded = snapshot::load_engine(bytes);
    if (!loaded) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   loaded.error().message.c_str());
      return 2;
    }
    eng = std::move(*loaded);
    if (!eng->queue) {
      std::fprintf(stderr,
                   "fluxion-sim: snapshot %s has no queue section\n",
                   warm_start_path.c_str());
      return 2;
    }
    // Only settings the snapshot does not carry are re-applied here.
    if (!eventlog_path.empty()) eng->queue->set_eventlog(true);
  } else {
    core::Options opt;
    opt.policy = policy;
    auto created = core::ResourceQuery::create_from_text(grug_text, opt);
    if (!created) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   created.error().message.c_str());
      return 2;
    }
    rq = std::move(*created);
    if (perf_seed >= 0) {
      auto& pg = rq->graph();
      const auto node_type = pg.find_type("node");
      if (!node_type) {
        std::fprintf(stderr, "fluxion-sim: no node vertices for classes\n");
        return 2;
      }
      util::Rng rng(static_cast<std::uint64_t>(perf_seed));
      const auto classes = sim::classes_from_tnorm(sim::synthesize_tnorm(
          pg.vertices_of_type(*node_type).size(), rng));
      if (auto st = sim::apply_performance_classes(pg, classes); !st) {
        std::fprintf(stderr, "fluxion-sim: %s\n", st.error().message.c_str());
        return 2;
      }
    }
    cold_q.emplace(rq->traverser(), qp);
    if (!eventlog_path.empty()) cold_q->set_eventlog(true);
    cold_q->set_match_cache(match_cache);
    if (first_match) {
      cold_q->set_traversal_mode(traverser::TraversalMode::first_match);
    }
    cold_q->set_reservation_depth(static_cast<std::size_t>(reservation_depth));
  }
  graph::ResourceGraph& g = eng ? *eng->graph : rq->graph();
  traverser::Traverser& t = eng ? *eng->traverser : rq->traverser();
  queue::JobQueue& q = eng ? *eng->queue : *cold_q;

  std::string snap_err;
  auto write_snapshot = [&](queue::JobQueue& cq) {
    const std::string bytes = snapshot::save_engine(g, t, &cq);
    std::ofstream out(snapshot_out, std::ios::binary);
    if (!out ||
        !out.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()))) {
      snap_err = "cannot write " + snapshot_out;
    }
  };

  std::vector<traverser::JobId> ids;
  sim::ScenarioResult dyn_summary;
  if (!scenario_path.empty()) {
    dynamic::DynamicResources dyn(g, t, &q);
    // Grow events name recipe files relative to the scenario file.
    const auto slash = scenario_path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : scenario_path.substr(0, slash + 1);
    auto resolver =
        [&](const std::string& ref) -> util::Expected<std::string> {
      bool read_ok = false;
      std::string text = read_file(dir + ref, read_ok);
      if (!read_ok) text = read_file(ref, read_ok);
      if (!read_ok) {
        return util::Error{util::Errc::not_found,
                           "cannot read recipe '" + ref + "'"};
      }
      return text;
    };
    auto replayed = [&]() {
      if (eng) return sim::resume_scenario(q, dyn, scenario, cores, resolver);
      if (!snapshot_out.empty()) {
        const sim::ScenarioCheckpointFn cb =
            [&](queue::JobQueue& cq) { write_snapshot(cq); };
        return sim::replay_scenario_checkpoint(q, dyn, scenario, cores,
                                               resolver, snapshot_at, cb);
      }
      return sim::replay_scenario(q, dyn, scenario, cores, resolver);
    }();
    if (!replayed) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   replayed.error().message.c_str());
      return 2;
    }
    ids = replayed->ids;
    dyn_summary = std::move(*replayed);
  } else if (eng) {
    auto replayed = sim::resume_trace(q, jobs, cores);
    if (!replayed) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   replayed.error().message.c_str());
      return 2;
    }
    ids = std::move(replayed->ids);
  } else if (!snapshot_out.empty()) {
    // Checkpointing implies the online replay loop even for batch traces,
    // so the snapshot lands at a well-defined arrival-batch boundary.
    const sim::CheckpointFn cb = [&](queue::JobQueue& cq,
                                     std::size_t) { write_snapshot(cq); };
    auto replayed =
        sim::replay_trace_checkpoint(q, jobs, cores, snapshot_at, cb);
    if (!replayed) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   replayed.error().message.c_str());
      return 2;
    }
    ids = std::move(replayed->ids);
  } else if (online) {
    auto replayed = sim::replay_trace(q, jobs, cores);
    if (!replayed) {
      std::fprintf(stderr, "fluxion-sim: %s\n",
                   replayed.error().message.c_str());
      return 2;
    }
    ids = std::move(replayed->ids);
  } else {
    for (const auto& tj : jobs) {
      auto js = sim::trace_jobspec(tj, cores);
      if (!js) {
        std::fprintf(stderr, "fluxion-sim: %s\n",
                     js.error().message.c_str());
        return 2;
      }
      ids.push_back(q.submit(*js));
    }
    q.run_to_completion();
  }
  if (!snapshot_out.empty()) {
    if (!snap_err.empty()) {
      std::fprintf(stderr, "fluxion-sim: %s\n", snap_err.c_str());
      return 2;
    }
    std::fprintf(stderr, "fluxion-sim: snapshot written to %s (t=%lld)\n",
                 snapshot_out.c_str(), static_cast<long long>(snapshot_at));
  }

  FILE* csv = stdout;
  if (!csv_path.empty()) {
    csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "fluxion-sim: cannot write %s\n",
                   csv_path.c_str());
      return 2;
    }
  }
  std::fprintf(csv,
               "job,nodes,duration,state,start,end,wait,fom,match_ms\n");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const queue::Job* job = q.find(ids[i]);
    const int fom =
        perf_seed >= 0 ? sim::figure_of_merit(g, job->resources) : -1;
    std::fprintf(csv, "%lld,%lld,%lld,%s,%lld,%lld,%lld,%d,%.3f\n",
                 static_cast<long long>(job->id),
                 static_cast<long long>(jobs[i].nodes),
                 static_cast<long long>(jobs[i].duration),
                 queue::job_state_name(job->state),
                 static_cast<long long>(job->start_time),
                 static_cast<long long>(job->end_time),
                 static_cast<long long>(
                     job->start_time >= 0
                         ? job->start_time - job->submit_time
                         : -1),
                 fom, job->match_seconds * 1e3);
  }
  if (csv != stdout) std::fclose(csv);

  if (!util_path.empty() &&
      !write_file(util_path,
                  sim::utilization_csv(sim::utilization_timeline(q)))) {
    return 2;
  }

  if (!metrics_path.empty() &&
      !write_file(metrics_path, obs::monitor().json() + "\n")) {
    return 2;
  }
  if (!trace_out_path.empty() &&
      !write_file(trace_out_path, obs::trace().chrome_json())) {
    return 2;
  }
  if (!eventlog_path.empty() &&
      !write_file(eventlog_path, q.eventlog().jsonl())) {
    return 2;
  }
  if (!prom_path.empty() &&
      !write_file(prom_path, obs::monitor().prometheus())) {
    return 2;
  }

  const auto m = q.metrics();
  const auto& s = q.stats();
  std::fprintf(stderr,
               "fluxion-sim: %zu jobs, %zu completed, %llu rejected | "
               "makespan %lld, avg wait %.1f, avg turnaround %.1f | "
               "sched %.3fs (%llu immediate, %llu reserved)\n",
               ids.size(), m.completed,
               static_cast<unsigned long long>(s.rejected),
               static_cast<long long>(m.makespan), m.avg_wait,
               m.avg_turnaround, s.total_match_seconds,
               static_cast<unsigned long long>(s.started_immediately),
               static_cast<unsigned long long>(s.reserved));
  std::fprintf(stderr,
               "fluxion-sim: %llu events fired (%llu heap pops) | "
               "%llu matches, %llu skipped by cache, %llu invalidations\n",
               static_cast<unsigned long long>(s.events_fired),
               static_cast<unsigned long long>(s.heap_pops),
               static_cast<unsigned long long>(s.match_calls),
               static_cast<unsigned long long>(s.match_skipped),
               static_cast<unsigned long long>(s.cache_invalidations));
  if (first_match) {
    const auto& ts = t.stats();
    std::fprintf(stderr,
                 "fluxion-sim: first-match mode | %llu visits, "
                 "%llu early stops\n",
                 static_cast<unsigned long long>(ts.visits),
                 static_cast<unsigned long long>(ts.first_match_stops));
  }
  if (!scenario_path.empty()) {
    std::fprintf(stderr,
                 "fluxion-sim: dyn events %zu status, %zu grow, %zu shrink | "
                 "%zu evicted, %zu replanned | vertices %zu live\n",
                 dyn_summary.status_events, dyn_summary.grow_events,
                 dyn_summary.shrink_events, dyn_summary.evicted.size(),
                 dyn_summary.replanned.size(), g.live_vertex_count());
  }
  return 0;
}
