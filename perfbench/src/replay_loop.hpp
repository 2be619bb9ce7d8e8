// The benchmark's replay loop and the checks run on its result.
//
// replay() is the loop of sim::replay_trace (flat and Federation
// overloads), written against the engine's public calls so a timer can
// sit around each one: parse (Jobspec::from_yaml), submit, schedule,
// next_event, advance_to, and the drain's never-satisfiable reject step.
// Between two public calls it runs a speed probe (speed_probe.hpp)
// whenever 5 ms have passed since the last one; probe time is not part of
// the pass's wall time or of any sample. Untraced, it reads the clock only
// for that, around each arrival batch, each drain step and at the ends of
// the pass. Traced, it records one span per call, plus a child "match"
// span per call whose length is the growth of the queues'
// QueueStats::total_match_seconds over that call (an aggregate of the
// traverser time spent inside it, anchored at the call's start).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "speed_probe.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  pass,        // the timed region: first arrival to end of the drain
  batch,       // one arrival batch: parse + submit of each job, schedule
  parse,       // Jobspec::from_yaml
  submit,      // JobQueue::submit / Federation::submit
  schedule,    // JobQueue::schedule / Federation::schedule
  next_event,  // next_event()
  advance,     // advance_to()
  reject,      // drain step: reject a never-satisfiable head job
  match,       // traverser time inside the parent call (aggregate)
  probe,       // a speed probe; excluded from the pass's wall time
};
const char* span_name(SpanKind k) noexcept;

struct Span {
  SpanKind kind;
  std::int32_t parent;  // index into the pass's spans; -1 for the root
  double start;         // seconds since the pass started
  double end;
};

struct PassResult {
  std::vector<std::int64_t> ids;  // queue or federation id per trace index
  double wall_s = 0.0;            // timed region less its speed probes
  // One sample per arrival batch: parse and submit of its jobs and the
  // schedule() after them. A trace that arrives in one batch (a queue
  // snapshot) gives one sample per drain step instead: advance_to the
  // next event and the schedule() that follows it.
  std::vector<double> decide_s;
  std::size_t errors = 0;         // parse failures + non-ok advance_to
  std::string first_error;
  std::vector<Span> spans;  // traced passes only
  SpeedSample speed;
};

PassResult replay(Engine& engine, const Inputs& in, bool traced);

/// The same trace through sim::replay_trace, the repository's own replay
/// loop, for the parity check.
fluxion::util::Expected<std::vector<std::int64_t>> reference_replay(
    Engine& engine, const Inputs& in);

/// What a finished replay left behind.
struct Outcome {
  std::uint64_t digest = 0;  // placements, windows and states by trace index
  std::size_t completed = 0;
  std::size_t failed = 0;     // not completed (rejected or non-terminal)
  double avg_wait_sim_s = 0;  // mean start - submit, completed jobs
  std::string violation;      // first correctness failure, empty if none
};

/// Digest and account the schedule and run Traverser::audit() on every
/// flat engine (a federation's leaves). With `deep`, also check each
/// job's window against its arrival and duration, and run the capacity
/// oracle over every booking.
Outcome inspect(Engine& engine, const Inputs& in,
                const std::vector<std::int64_t>& ids, bool deep);

/// Per-layer totals of one traced pass, from span self times.
struct LayerTimes {
  double parse_s = 0;      // jobspec
  double submit_s = 0;     // queue (or federation inbox) submit
  double schedule_s = 0;   // schedule calls
  double advance_s = 0;    // next_event + advance_to + drain rejects
  double match_s = 0;      // traverser, inside schedule/advance
  double unaccounted_s = 0;  // timed wall outside every call span
};
LayerTimes layer_times(const std::vector<Span>& spans);

}  // namespace perfbench
