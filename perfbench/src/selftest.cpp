// Self-tests of the benchmark's helpers: quantiles on known samples, the
// capacity oracle on hand-built schedules, the speed-probe scale, the obs
// key reader, and the replay loop's parity with sim::replay_trace on a
// small trace of every workload. Exit 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "replay_loop.hpp"
#include "speed_probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_quantiles() {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  check(near(quantile(v, 0.5), 35), "median of 5");
  check(near(quantile(v, 0.0), 15), "q0 is the minimum");
  check(near(quantile(v, 1.0), 50), "q1 is the maximum");
  check(near(quantile(v, 0.4), 29), "q0.4 interpolates 20..35");
  check(near(quantile(v, 0.9), 46), "q0.9 interpolates 40..50");
  check(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
  check(near(quantile({7}, 0.9), 7), "single sample");
  check(quantile({}, 0.5) == 0.0, "empty sample");
}

void test_oracle() {
  // Two jobs on a 4-unit pool: fine back to back, fine side by side
  // while the units fit, over-committed when they do not.
  std::vector<Booking> ok = {
      {1, 4, 2, false, 0, 10, 1},
      {1, 4, 2, false, 5, 15, 2},
      {1, 4, 4, false, 15, 20, 3},  // starts as job 2 ends
  };
  check(capacity_violation(ok).empty(), "feasible schedule accepted");

  std::vector<Booking> over = ok;
  over.push_back({1, 4, 1, false, 8, 9, 4});
  check(!capacity_violation(over).empty(), "over-committed pool flagged");

  // A node double-booked by two exclusive jobs with overlapping windows.
  std::vector<Booking> dbl = {
      {3, 1, 1, true, 100, 200, 7},
      {3, 1, 1, true, 150, 250, 8},
  };
  check(!capacity_violation(dbl).empty(), "double-booked node flagged");
  dbl[1].start = 200;
  dbl[1].end = 300;
  check(capacity_violation(dbl).empty(), "back-to-back node accepted");

  // Exclusive use of a shareable vertex rules out any sharer.
  std::vector<Booking> excl = {
      {5, 8, 2, true, 0, 10, 1},
      {5, 8, 2, false, 9, 12, 2},
  };
  check(!capacity_violation(excl).empty(), "shared exclusive claim flagged");
  check(!capacity_violation({{6, 1, 1, false, 5, 5, 1}}).empty(),
        "empty window flagged");
}

void test_speed_sample() {
  SpeedSample none;
  check(none.scale() == 1.0, "no probes: scale 1");
  SpeedSample some;
  for (int i = 0; i < 3; ++i) some.probe();
  check(some.count() == 3 && some.seconds() > 0, "probes are timed");
  check(near(some.scale() * some.seconds(), 3 * kProbeReferenceSeconds),
        "scale is reference over mean probe time");
  check(near(some.scale(2.0), some.scale() * some.scale()),
        "scale exponent");
}

void test_obs_reader() {
  auto flat = flatten_json_numbers(
      R"({"queue":{"match_calls":12,"hist":{"count":3}},"list":[1,2],)"
      R"("name":"x","rate":0.5})");
  check(static_cast<bool>(flat), "obs reader parses");
  if (!flat) return;
  check(flat->count("queue.match_calls") &&
            near(flat->at("queue.match_calls"), 12),
        "nested key read");
  check(flat->count("queue.hist.count") == 1, "deep key read");
  check(flat->count("rate") && near(flat->at("rate"), 0.5), "float read");
  check(flat->count("list") == 0 && flat->count("name") == 0,
        "arrays and strings skipped");
}

void test_parity() {
  for (WorkloadSpec spec : workloads()) {
    spec.trace.job_count = 150;
    for (std::uint64_t seed : {1, 2}) {
      const std::string tag = spec.name + " seed " + std::to_string(seed);
      auto in = make_inputs(spec, seed);
      check(static_cast<bool>(in), tag + ": inputs");
      if (!in) continue;
      auto e1 = build_engine(spec, *in);
      auto e2 = build_engine(spec, *in);
      auto e3 = build_engine(spec, *in);
      check(e1 && e2 && e3, tag + ": engines");
      if (!e1 || !e2 || !e3) continue;
      auto ref_ids = reference_replay(*e1, *in);
      check(static_cast<bool>(ref_ids), tag + ": sim::replay_trace");
      if (!ref_ids) continue;
      const Outcome ref = inspect(*e1, *in, *ref_ids, true);
      const PassResult plain = replay(*e2, *in, false);
      const Outcome a = inspect(*e2, *in, plain.ids, true);
      const PassResult traced = replay(*e3, *in, true);
      const Outcome b = inspect(*e3, *in, traced.ids, true);
      check(ref.violation.empty() && ref.failed == 0,
            tag + ": reference schedule valid: " + ref.violation);
      check(a.violation.empty() && b.violation.empty() && plain.errors == 0 &&
                traced.errors == 0,
            tag + ": loop schedules valid");
      check(a.digest == ref.digest, tag + ": untraced loop == sim replay");
      check(b.digest == ref.digest, tag + ": traced loop == sim replay");
      const LayerTimes lt = layer_times(traced.spans);
      const double sum = lt.parse_s + lt.submit_s + lt.schedule_s +
                         lt.advance_s + lt.unaccounted_s;
      check(std::fabs(sum - traced.wall_s) < 1e-3 * traced.wall_s + 1e-6,
            tag + ": layer times add up to the traced wall time");
      check(lt.match_s <= lt.schedule_s + lt.advance_s + 1e-6,
            tag + ": match time nests inside queue calls");
      check(plain.speed.count() > 0 && traced.speed.count() > 0,
            tag + ": both loops take speed probes");
      // A t=0 snapshot is sampled per drain step, a stream per batch.
      check(spec.mean_interarrival > 0
                ? plain.decide_s.size() > 1 &&
                      plain.decide_s.size() <= in->trace.size()
                : plain.decide_s.size() > 1,
            tag + ": decision samples");
    }
  }
}

}  // namespace

int main() {
  test_quantiles();
  test_oracle();
  test_speed_sample();
  test_obs_reader();
  test_parity();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
