// Federation replay: drive a hier::Federation against the same traces
// and dynamic scenarios the flat JobQueue replays, through the same replay
// loop (sim/drive.hpp) — so a single-member federation reproduces the
// flat engine's decisions byte-for-byte, and multi-member runs stay
// deterministic for fixed inputs.
#pragma once

#include <vector>

#include "hier/federation.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "util/expected.hpp"

namespace fluxion::sim {

struct FedReplayResult {
  /// Federation job ids, aligned with the input trace order.
  std::vector<hier::FedJobId> ids;
  util::TimePoint end_time = 0;
};

/// Submit every trace job at its arrival time (the federation routes it
/// on the following schedule pass), then run the federation dry. The
/// federation must be freshly constructed (clock at 0, nothing routed).
util::Expected<FedReplayResult> replay_trace(
    hier::Federation& fed, const std::vector<TraceJob>& trace,
    std::int64_t cores_per_node);

struct FedScenarioResult {
  std::vector<hier::FedJobId> ids;
  util::TimePoint end_time = 0;
  std::size_t status_events = 0;
  std::size_t grow_events = 0;
  std::size_t shrink_events = 0;
};

/// Replay a dynamic scenario through the federation. Each resource event
/// is applied to the member whose graph contains the target path —
/// leaves first, the root as fallback — through that member's own
/// DynamicResources coordinator, and the router's satisfiability cache
/// is invalidated afterwards. Events apply before arrivals at equal
/// timestamps, as in the flat replay.
util::Expected<FedScenarioResult> replay_scenario(
    hier::Federation& fed, const Scenario& scenario,
    std::int64_t cores_per_node, const RecipeResolver& resolver);

}  // namespace fluxion::sim
