// perfbench: the repository benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// One process, one thread, one workload. The run:
//   1. makes the workload's inputs from the seed;
//   2. builds the engine once cold (graph.cold_build_s, kept out of
//      setup_s) and once warm, to size the set-up batches;
//   3. replays the trace once through sim::replay_trace, untimed: the
//      warm-up pass and the parity reference. Its schedule goes through
//      the capacity oracle and Traverser::audit();
//   4. replays a trace drawn from a fixed seed the same way; its mean
//      wait is avg_wait_sim_s, the same on every run of the same code;
//   5. runs measured passes for at most S seconds (at least three). Each
//      pass builds the engine in a batch of warm builds lasting >= 0.25 s
//      (one setup_s sample), then replays the trace with the benchmark's
//      own loop on the last engine built. Every pass must reproduce the
//      reference placement digest. Speed probes taken around the builds
//      and during the untraced replay scale the pass's times to the
//      reference host's speed (speed_probe.hpp). With --trace 1 untraced
//      and traced passes alternate, and the traced ones give the
//      per-layer metrics.
// Per-pass values are printed one JSON object a line; the last line is
// the result: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "obs/metrics.hpp"
#include "replay_loop.hpp"
#include "speed_probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Each set-up sample times a batch of warm builds lasting at least this
// long, so a small engine is not timed over a window of a few ms.
constexpr double kSetupSampleSeconds = 0.25;
constexpr int kMinPasses = 3;  // per kind (untraced / traced)
// Speed probes before each warm build of a set-up sample and after the
// last one.
constexpr int kSetupProbes = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Restart the kernel's resident-set high-water mark at the current RSS,
/// after handing freed heap back, so a pass's peak covers its own engine
/// and replay only. False when the kernel refuses.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return static_cast<bool>(f);
}

/// Peak resident set in MiB since the last reset (VmHWM); 0 when /proc
/// does not report it.
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Everything the run accumulates for its result line.
struct Run {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string violation;
  void fail(const std::string& why) {
    if (violation.empty()) violation = why;
  }
};

struct PassStats {
  double wall_s = 0;          // raw: the timed replay, less its probes
  double speed_scale = 1;     // speed-probe scale of the replay
  double setup_raw_s = 0;     // raw: mean warm build time before this pass
  double setup_scale = 1;     // speed-probe scale of those builds
  double peak_rss_mb = 0;     // engine build + replay of this pass
  // Scaled to the reference host's speed (speed_probe.hpp).
  double jobs_per_s = 0;
  double decide_p50_ms = 0;
  double decide_p90_ms = 0;
  double setup_s = 0;
  // Traced passes only (raw).
  LayerTimes layers;
  std::map<std::string, double> obs;
};

std::size_t vertex_total(Engine& e) {
  if (!e.fed) return e.rq->graph().vertex_count();
  std::size_t n = e.fed->root().engine().graph().vertex_count();
  for (std::size_t m = 0; m < e.fed->member_count(); ++m) {
    if (!e.fed->member(m).is_root) {
      n += e.fed->member(m).instance->engine().graph().vertex_count();
    }
  }
  return n;
}

fx::util::Expected<Engine> build(const WorkloadSpec& spec, const Inputs& in,
                                 double* seconds) {
  const auto t0 = Clock::now();
  auto e = build_engine(spec, in);
  if (seconds != nullptr) *seconds = since(t0);
  return e;
}

/// One replay pass with the benchmark's loop. It first builds the engine
/// `builds` times in a row (one set-up sample: their mean time), with
/// kSetupProbes speed probes before each build and after the last, and
/// keeps the last engine for the replay.
PassStats measured_pass(const WorkloadSpec& spec, const Inputs& in,
                        bool traced, int builds, std::uint64_t want_digest,
                        Run& run, std::vector<Span>* spans_keep) {
  PassStats ps;
  const bool rss_reset = reset_peak_rss();
  std::optional<Engine> engine;
  SpeedSample setup_speed;
  double build_s = 0;
  for (int b = 0; b < builds; ++b) {
    engine.reset();  // one engine alive at a time
    for (int k = 0; k < kSetupProbes; ++k) setup_speed.probe();
    double t = 0;
    auto e = build(spec, in, &t);
    if (!e) {
      run.fail("engine build: " + e.error().message);
      return ps;
    }
    build_s += t;
    engine = std::move(*e);
  }
  for (int k = 0; k < kSetupProbes; ++k) setup_speed.probe();
  ps.setup_raw_s = build_s / builds;
  ps.setup_scale = setup_speed.scale();
  ps.setup_s = ps.setup_raw_s * ps.setup_scale;
  if (traced) {
    fx::obs::monitor().reset();
    fx::obs::set_enabled(true);
  }
  PassResult r = replay(*engine, in, traced);
  if (traced) fx::obs::set_enabled(false);

  run.attempted += in.trace.size();
  // The reference schedule went through the oracle; a pass that
  // reproduces its digest placed every job identically.
  const Outcome o = inspect(*engine, in, r.ids, false);
  run.failed += o.failed + r.errors;
  if (r.errors > 0) run.fail("replay: " + r.first_error);
  if (!o.violation.empty()) run.fail(o.violation);
  if (o.digest != want_digest) {
    run.fail(std::string(traced ? "traced" : "untraced") +
             " pass placed jobs differently from sim::replay_trace");
  }
  ps.peak_rss_mb = peak_rss_mib();
  if (!rss_reset) {
    std::fprintf(stderr, "perfbench: cannot restart the RSS high-water "
                         "mark; peak_rss_mb covers the whole process\n");
  }
  ps.wall_s = r.wall_s;
  ps.speed_scale = r.speed.scale(spec.speed_exponent);
  ps.jobs_per_s =
      static_cast<double>(o.completed) / (r.wall_s * ps.speed_scale);
  ps.decide_p50_ms = quantile(r.decide_s, 0.5) * 1e3 * ps.speed_scale;
  ps.decide_p90_ms = quantile(r.decide_s, 0.9) * 1e3 * ps.speed_scale;
  if (traced) {
    ps.layers = layer_times(r.spans);
    auto counters = flatten_json_numbers(fx::obs::monitor().json());
    if (!counters) {
      run.fail("obs json: " + counters.error().message);
    } else {
      ps.obs = std::move(*counters);
    }
    if (spans_keep != nullptr) *spans_keep = std::move(r.spans);
  }
  return ps;
}

void print_pass(std::size_t i, bool traced, const PassStats& ps) {
  std::printf(
      "{\"pass\": %zu, \"traced\": %s, \"wall_s\": %s, \"speed_scale\": %s, "
      "\"setup_raw_s\": %s, \"setup_scale\": %s, \"jobs_per_s\": %s, "
      "\"decide_p50_ms\": %s, \"decide_p90_ms\": %s, \"setup_s\": %s, "
      "\"peak_rss_mb\": %s}\n",
      i, traced ? "true" : "false", num(ps.wall_s).c_str(),
      num(ps.speed_scale).c_str(), num(ps.setup_raw_s).c_str(),
      num(ps.setup_scale).c_str(), num(ps.jobs_per_s).c_str(),
      num(ps.decide_p50_ms).c_str(), num(ps.decide_p90_ms).c_str(),
      num(ps.setup_s).c_str(), num(ps.peak_rss_mb).c_str());
  std::fflush(stdout);
}

template <class F>
double median_of(const std::vector<PassStats>& v, F f) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const PassStats& p : v) xs.push_back(f(p));
  return median(std::move(xs));
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span_name(s.kind)
        << "\",\"parent\":" << s.parent << ",\"start_us\":"
        << num(s.start * 1e6) << ",\"end_us\":" << num(s.end * 1e6)
        << "}\n";
  }
  return static_cast<bool>(out);
}

/// Replay `in` through sim::replay_trace on a fresh engine and check the
/// schedule deeply (oracle, windows, audit), counting its jobs into
/// `run`. Empty when the replay could not run at all.
std::optional<Outcome> checked_reference(const WorkloadSpec& spec,
                                         const Inputs& in, Run& run) {
  auto engine = build(spec, in, nullptr);
  if (!engine) {
    std::fprintf(stderr, "perfbench: engine: %s\n",
                 engine.error().message.c_str());
    return std::nullopt;
  }
  auto ids = reference_replay(*engine, in);
  if (!ids) {
    std::fprintf(stderr, "perfbench: sim::replay_trace: %s\n",
                 ids.error().message.c_str());
    return std::nullopt;
  }
  Outcome o = inspect(*engine, in, *ids, true);
  run.attempted += in.trace.size();
  run.failed += o.failed;
  if (!o.violation.empty()) run.fail("reference: " + o.violation);
  return o;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  auto inputs = make_inputs(*spec, args.seed);
  if (!inputs) {
    std::fprintf(stderr, "perfbench: inputs: %s\n",
                 inputs.error().message.c_str());
    return 1;
  }
  const Inputs& in = *inputs;
  Run run;

  // --- set-up: one cold build, then one warm build to size the batches ----
  double cold_s = 0;
  double warm_s = 0;
  std::size_t vertices = 0;
  {
    auto cold = build(*spec, in, &cold_s);
    if (!cold) {
      std::fprintf(stderr, "perfbench: engine: %s\n",
                   cold.error().message.c_str());
      return 1;
    }
    vertices = vertex_total(*cold);
  }
  if (!build(*spec, in, &warm_s)) return 1;
  const int builds = std::max(
      1, static_cast<int>(std::ceil(kSetupSampleSeconds / warm_s)));
  std::printf("{\"cold_build_s\": %s, \"warm_build_s\": %s, "
              "\"builds_per_pass\": %d}\n",
              num(cold_s).c_str(), num(warm_s).c_str(), builds);
  std::fflush(stdout);

  // --- warm-up pass: the parity reference through sim::replay_trace ---------
  auto ref = checked_reference(*spec, in, run);
  if (!ref) return 1;
  // --- schedule quality: the same replay of a trace drawn from a fixed
  // seed, so the mean wait is the same on every run of the same code ---------
  double avg_wait_sim_s = 0;
  {
    WorkloadSpec qspec = *spec;
    if (qspec.quality_interarrival > 0) {
      qspec.mean_interarrival = qspec.quality_interarrival;
    }
    auto qin = make_inputs(qspec, kQualitySeed);
    if (!qin) {
      std::fprintf(stderr, "perfbench: inputs: %s\n",
                   qin.error().message.c_str());
      return 1;
    }
    auto q = checked_reference(*spec, *qin, run);
    if (!q) return 1;
    avg_wait_sim_s = q->avg_wait_sim_s;
  }

  // --- measured passes ------------------------------------------------------
  std::vector<PassStats> plain;
  std::vector<PassStats> traced;
  std::vector<Span> last_spans;
  // Start another round only while it is expected to end within
  // --seconds (after the minimum), so a run measures for at most that.
  const auto t_measure = Clock::now();
  double round_s = 0;
  while (plain.size() < static_cast<std::size_t>(kMinPasses) ||
         since(t_measure) + round_s <= args.seconds) {
    const auto t_round = Clock::now();
    plain.push_back(
        measured_pass(*spec, in, false, builds, ref->digest, run, nullptr));
    print_pass(plain.size() - 1, false, plain.back());
    if (args.trace) {
      traced.push_back(measured_pass(*spec, in, true, builds, ref->digest,
                                     run, &last_spans));
      print_pass(traced.size() - 1, true, traced.back());
    }
    round_s = since(t_round);
  }

  std::vector<Metric> metrics;
  const double jobs = static_cast<double>(in.trace.size());
  if (!args.trace) {
    metrics = {
        {"jobs_per_s", median_of(plain, [](auto& p) { return p.jobs_per_s; }),
         "jobs/s"},
        {"decide_p50_ms",
         median_of(plain, [](auto& p) { return p.decide_p50_ms; }), "ms"},
        {"decide_p90_ms",
         median_of(plain, [](auto& p) { return p.decide_p90_ms; }), "ms"},
        {"setup_s", median_of(plain, [](auto& p) { return p.setup_s; }),
         "s"},
        {"peak_rss_mb",
         median_of(plain, [](auto& p) { return p.peak_rss_mb; }), "MiB"},
        {"avg_wait_sim_s", avg_wait_sim_s, "sim_s"},
    };
  } else {
    const PassStats& last = traced.back();
    auto c = [&](const char* key) {
      auto it = last.obs.find(key);
      if (it == last.obs.end()) {
        run.fail(std::string("obs json has no key ") + key);
        return 0.0;
      }
      return it->second;
    };
    const double calls = c("queue.match_calls");
    const double skipped = c("queue.match_skipped");
    double placed = 0;
    for (const char* op : {"allocate", "allocate_orelse_reserve",
                           "allocate_with_satisfiability"}) {
      placed += c((std::string("ops.") + op + ".calls").c_str()) -
                c((std::string("ops.") + op + ".failures").c_str());
    }
    auto med = [&](auto f) { return median_of(traced, f); };
    const double wall = med([](auto& p) { return p.wall_s; });
    const double match_s = med([](auto& p) { return p.layers.match_s; });
    const double sched_s = med([](auto& p) { return p.layers.schedule_s; });
    const double adv_s = med([](auto& p) { return p.layers.advance_s; });
    const double unacc = med([](auto& p) { return p.layers.unaccounted_s; });
    const double plain_rate =
        median_of(plain, [](auto& p) { return p.jobs_per_s; });
    const double traced_rate = med([](auto& p) { return p.jobs_per_s; });
    // On a federation the queue calls are Federation's: routing, the
    // steal pass and the lockstep clock run inside them with the member
    // queue passes.
    metrics = {
        {"queue.schedule_s", sched_s, "s"},
        {"queue.advance_s", adv_s, "s"},
        {"queue.self_s", med([](auto& p) {
           return p.layers.schedule_s + p.layers.advance_s - p.layers.match_s;
         }),
         "s"},
        {"queue.submit_s", med([](auto& p) { return p.layers.submit_s; }), "s"},
        {"queue.match_calls_per_job", calls / jobs, "calls/job"},
        {"queue.cache_skip_share", ratio(skipped, calls + skipped), "share"},
        {"queue.heap_pops_per_event",
         ratio(c("queue.jobs_scanned"), c("queue.events_fired")), "pops/event"},
        {"traverser.match_s", match_s, "s"},
        {"traverser.match_us", ratio(match_s * 1e6, calls), "us"},
        {"traverser.visits_per_match", ratio(c("traverser.visits"), calls),
         "visits/call"},
        {"traverser.success_share", ratio(placed, calls), "share"},
        {"traverser.first_match_stops_per_match",
         ratio(c("traverser.first_match_stops"), calls), "stops/call"},
        {"planner.atf_probes_per_match", ratio(c("planner.atf_probes"), calls),
         "probes/call"},
        {"planner.multi_atf_rounds_per_match",
         ratio(c("planner_multi.atf_rounds"), calls), "rounds/call"},
        {"planner.span_adds_per_job", c("planner.span_adds") / jobs,
         "spans/job"},
        {"planner.point_inserts_per_job", c("planner.point_inserts") / jobs,
         "points/job"},
        {"sdfu.spans_per_commit", ratio(c("sdfu.spans"), c("sdfu.commits")),
         "spans/commit"},
        {"hier.routed", c("hier.routed"), "jobs"},
        {"hier.escalated", c("hier.escalated"), "jobs"},
        {"hier.stolen", c("hier.stolen"), "jobs"},
        {"graph.cold_build_s", cold_s, "s"},
        {"graph.vertices", static_cast<double>(vertices), "count"},
        {"jobspec.parse_s", med([](auto& p) { return p.layers.parse_s; }), "s"},
        {"obs.overhead", ratio(plain_rate, traced_rate) - 1.0, "share"},
        {"unaccounted_s", unacc, "s"},
        {"unaccounted_share", ratio(unacc, wall), "share"},
        {"traced_wall_s", wall, "s"},
    };
    if (!args.spans_out.empty() && !write_spans(args.spans_out, last_spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }

  if (!run.violation.empty()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", run.violation.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              run.violation.empty() ? "true" : "false", run.attempted,
              run.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), num(metrics[i].value).c_str(),
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
