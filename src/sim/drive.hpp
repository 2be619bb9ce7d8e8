// The one replay loop behind every trace and scenario replay, flat or
// federated (sim/replay.hpp, sim/scenario.hpp, sim/fed_replay.hpp). A
// trace is a scenario with no events; the scheduler is a queue::JobQueue
// or a hier::Federation, which answer the same calls. Sharing the
// loop is what makes a federation of one replay act-for-act like the flat
// engine, and a checkpointed or resumed replay like a straight one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "util/expected.hpp"

namespace fluxion::sim::detail {

/// One timed act of a replay: a job arrival or a resource event.
struct Act {
  util::TimePoint at = 0;
  bool is_job = false;
  std::size_t idx = 0;  // into the job list or the event list
};

/// Acts in replay order: by time, events before jobs at equal times,
/// otherwise in input order.
std::vector<Act> act_order(const std::vector<TraceJob>& jobs,
                           const std::vector<DynEvent>& events);

/// Replay `acts[k0..]` on `s`. For each act time: fire the scheduler's
/// events before it (scheduling after each, as completions may unblock
/// pending jobs), move the clock there, apply every act due (a job is
/// submitted, event i goes to `on_event(i, result)`), then schedule once.
/// Then run the scheduler dry. `result.ids[j]` receives job j's id. On
/// resume (k0 > 0) the ids of the job acts before k0 are read back from
/// `s.all_jobs()`, which lists them in submit order; the caller has
/// checked that it holds exactly those.
///
/// `on_checkpoint`, when set, fires once with the act cursor at the batch
/// boundary before the first act later than `checkpoint_at`, or before the
/// drain when there is none: a state the plain replay passes through too,
/// so checkpointed and straight runs stay act-for-act identical.
template <class Result, class Sched, class OnEvent>
util::Expected<Result> drive(
    Sched& s, const std::vector<Act>& acts, std::size_t k0,
    const std::vector<TraceJob>& jobs, std::int64_t cores_per_node,
    const OnEvent& on_event, util::TimePoint checkpoint_at,
    const std::function<void(std::size_t)>& on_checkpoint) {
  Result result;
  result.ids.assign(jobs.size(), -1);
  std::size_t restored = 0;
  for (std::size_t k = 0; k < k0; ++k) {
    if (acts[k].is_job) result.ids[acts[k].idx] = s.all_jobs()[restored++];
  }
  bool pending_checkpoint = static_cast<bool>(on_checkpoint);
  for (std::size_t k = k0; k < acts.size();) {
    const util::TimePoint at = acts[k].at;
    if (pending_checkpoint && at > checkpoint_at) {
      on_checkpoint(k);
      pending_checkpoint = false;
    }
    while (true) {
      const util::TimePoint ev = s.next_event();
      if (ev >= at) break;
      if (auto st = s.advance_to(ev); !st) return st.error();
      s.schedule();
    }
    if (auto st = s.advance_to(std::max(s.now(), at)); !st) return st.error();
    while (k < acts.size() && acts[k].at <= s.now()) {
      const Act& act = acts[k];
      if (act.is_job) {
        auto js = trace_jobspec(jobs[act.idx], cores_per_node);
        if (!js) return js.error();
        result.ids[act.idx] = s.submit(*js);
      } else if (auto st = on_event(act.idx, result); !st) {
        return st.error();
      }
      ++k;
    }
    s.schedule();
  }
  if (pending_checkpoint) on_checkpoint(acts.size());
  auto end = s.run_to_completion();
  if (!end) return end.error();
  result.end_time = *end;
  return result;
}

/// The `on_event` of a trace replay, which has no events.
inline constexpr auto no_events = [](std::size_t, auto&) {
  return util::Status::ok();
};

}  // namespace fluxion::sim::detail
