#include "workloads.hpp"

#include <algorithm>
#include <numeric>

#include "grug/recipes.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// speed_exponent is the log-log slope of a pass's raw wall time on its
// mean probe time within a run (one seed, one process, so only the host's
// speed varies), pooled over runs on the reference host: 1.34-1.60 on
// easy_backlog (3 sets, 184 passes), 1.14-1.23 on conservative_stream
// (2 sets, 116 passes), 1.69-1.91 on hier_stream (5 sets, 209 passes).
std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;

  // §6.3 snapshot replay: a whole-node backlog with round walltimes, all
  // submitted at t=0. EASY retries every pending job at each completion,
  // so the queue pass and the satisfiability cache do the most work.
  WorkloadSpec easy;
  easy.name = "easy_backlog";
  easy.racks = 2;
  easy.policy = fx::queue::QueuePolicy::easy_backfill;
  easy.trace.job_count = 1400;
  easy.trace.max_nodes = 64;
  easy.trace.duration_quantum = 3600;
  easy.speed_exponent = 1.4;
  out.push_back(easy);

  // Online conservative backfill: each arrival gets exactly one
  // allocate-orelse-reserve match, so time search, planner earliest-fit
  // and span/SDFU commits dominate.
  WorkloadSpec cons;
  cons.name = "conservative_stream";
  cons.racks = 8;
  cons.policy = fx::queue::QueuePolicy::conservative_backfill;
  cons.trace.job_count = 1000;
  cons.trace.max_nodes = 128;
  cons.mean_interarrival = 550.0;  // ~70% of the machine's node-seconds
  cons.speed_exponent = 1.2;
  out.push_back(cons);

  // §5.6 federation: four leaf instances behind a round-robin router,
  // EASY leaves in first-match mode, fed a Poisson stream of short
  // one-node jobs with round walltimes (the high-throughput setting).
  WorkloadSpec hier;
  hier.name = "hier_stream";
  hier.federated = true;
  hier.racks = 8;
  hier.leaves = 4;
  hier.policy = fx::queue::QueuePolicy::easy_backfill;
  hier.mode = fx::traverser::TraversalMode::first_match;
  hier.trace.job_count = 8000;
  hier.trace.max_nodes = 1;
  hier.trace.min_duration = 600;
  hier.trace.max_duration = 1800;
  hier.trace.duration_quantum = 60;
  hier.mean_interarrival = 2.6;  // ~87% of the machine's node-seconds
  // At that load jobs almost never wait (mean 0.07 s on the quality
  // seed), so the quality trace runs the same population 8% denser.
  hier.quality_interarrival = 2.4;
  hier.speed_exponent = 1.8;
  out.push_back(hier);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

fx::util::Expected<Inputs> make_inputs(const WorkloadSpec& spec,
                                       std::uint64_t seed) {
  Inputs in;
  in.recipe = fx::grug::recipes::quartz(true, spec.racks, 62,
                                        static_cast<int>(kCoresPerNode));
  // The job population (node counts and walltimes) is drawn once per
  // workload; the seed shuffles its order and draws the arrival times.
  // Every seed thus asks for the same total work, and what varies is the
  // order and timing the scheduler sees.
  fx::util::Rng population(kPopulationSeed);
  in.trace = fx::sim::generate_trace(spec.trace, population);
  fx::util::Rng rng(seed);
  rng.shuffle(in.trace);
  if (spec.mean_interarrival > 0) {
    fx::sim::stamp_poisson_arrivals(in.trace, spec.mean_interarrival, rng);
  }
  in.order.resize(in.trace.size());
  std::iota(in.order.begin(), in.order.end(), std::size_t{0});
  std::stable_sort(in.order.begin(), in.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return in.trace[a].arrival < in.trace[b].arrival;
                   });
  in.yaml.reserve(in.trace.size());
  for (const fx::sim::TraceJob& job : in.trace) {
    auto js = fx::sim::trace_jobspec(job, kCoresPerNode);
    if (!js) return js.error();
    in.yaml.push_back(js->to_yaml());
  }
  return in;
}

fx::util::Expected<Engine> build_engine(const WorkloadSpec& spec,
                                        const Inputs& in) {
  Engine e;
  if (spec.federated) {
    fx::hier::FederationConfig cfg;
    cfg.children = spec.leaves;
    cfg.levels = 1;
    cfg.route = fx::hier::RoutePolicy::round_robin;
    cfg.queue_policy = spec.policy;
    cfg.traversal_mode = spec.mode;
    cfg.match_cache = true;
    cfg.match_threads = 1;
    auto fed = fx::hier::Federation::create(in.recipe, cfg);
    if (!fed) return fed.error();
    e.fed = std::move(*fed);
    return e;
  }
  auto rq = fx::core::ResourceQuery::create(in.recipe);
  if (!rq) return rq.error();
  e.rq = std::move(*rq);
  e.queue = std::make_unique<fx::queue::JobQueue>(e.rq->traverser(),
                                                  spec.policy);
  e.queue->set_traversal_mode(spec.mode);
  e.queue->set_match_cache(true);
  e.queue->set_match_threads(1);
  return e;
}

}  // namespace perfbench
