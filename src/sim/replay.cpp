#include "sim/replay.hpp"

#include "sim/drive.hpp"

namespace fluxion::sim {

namespace {

util::Expected<ReplayResult> run_trace(
    queue::JobQueue& q, const std::vector<TraceJob>& trace,
    std::int64_t cores_per_node, std::size_t k0,
    util::TimePoint checkpoint_at,
    const std::function<void(std::size_t)>& on_checkpoint) {
  return detail::drive<ReplayResult>(q, detail::act_order(trace, {}), k0,
                                     trace, cores_per_node, detail::no_events,
                                     checkpoint_at, on_checkpoint);
}

}  // namespace

util::Expected<ReplayResult> replay_trace(queue::JobQueue& q,
                                          const std::vector<TraceJob>& trace,
                                          std::int64_t cores_per_node) {
  if (q.now() != 0 || q.stats().submitted != 0) {
    return util::Error{util::Errc::invalid_argument,
                       "replay_trace: queue already used"};
  }
  return run_trace(q, trace, cores_per_node, 0, 0, {});
}

util::Expected<ReplayResult> replay_trace_checkpoint(
    queue::JobQueue& q, const std::vector<TraceJob>& trace,
    std::int64_t cores_per_node, util::TimePoint checkpoint_at,
    const CheckpointFn& on_checkpoint) {
  if (q.now() != 0 || q.stats().submitted != 0) {
    return util::Error{util::Errc::invalid_argument,
                       "replay_trace: queue already used"};
  }
  if (!on_checkpoint) {
    return util::Error{util::Errc::invalid_argument,
                       "replay_trace: null checkpoint callback"};
  }
  return run_trace(q, trace, cores_per_node, 0, checkpoint_at,
                   [&](std::size_t submitted) { on_checkpoint(q, submitted); });
}

util::Expected<ReplayResult> resume_trace(queue::JobQueue& q,
                                          const std::vector<TraceJob>& trace,
                                          std::int64_t cores_per_node) {
  const std::size_t k0 = static_cast<std::size_t>(q.stats().submitted);
  if (k0 > trace.size()) {
    return util::Error{util::Errc::invalid_argument,
                       "resume_trace: queue holds " + std::to_string(k0) +
                           " jobs but trace has only " +
                           std::to_string(trace.size())};
  }
  if (q.all_jobs().size() != k0) {
    return util::Error{util::Errc::invalid_argument,
                       "resume_trace: queue job list disagrees with its "
                       "submitted count"};
  }
  return run_trace(q, trace, cores_per_node, k0, 0, {});
}

}  // namespace fluxion::sim
