// Engine snapshot: a versioned binary image of the whole scheduling
// engine — ResourceGraph (vertices, edges, interner tables, pruning-filter
// totals), every committed Planner/PlannerMulti span (via the traverser's
// job records, the authoritative list), and optionally the JobQueue
// (jobs, pending order, simulated clock, stats, eventlog).
//
// Restore contract: load() rebuilds an engine whose observable behaviour
// is identical to the writer's at save time — replaying the remaining
// workload on the restored engine produces byte-identical placements and
// eventlog to never having snapshotted at all (pinned by
// tests/integration/test_snapshot_differential.cpp). Internal identifiers
// that never escape the engine (planner span ids, event-heap stale
// entries, the satisfiability cache's memoised failures) are NOT
// preserved; they cannot affect placements or the eventlog.
//
// Format: "FLXS" magic, u32 version, then LEB128/zigzag-coded sections
// (see codec.hpp). Vertex-id sets use run-length-encoded ranges, the
// idset/R_lite compression from flux-sched. docs/snapshot.md documents
// the versioning and compatibility policy.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "graph/resource_graph.hpp"
#include "queue/job_queue.hpp"
#include "traverser/traverser.hpp"
#include "util/expected.hpp"

namespace fluxion::snapshot {

/// Current format version. load() refuses anything newer; older versions
/// are migrated in place when a reader for them still exists (version 1:
/// four extra queue counters; versions 1-2: wall-clock match seconds
/// instead of the schedule-pass count; all skipped on load).
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// A freshly rebuilt engine: the graph, the policy object the traverser
/// ranks with, the traverser itself, and (when the snapshot carried one)
/// the queue. Members are pointers so the reference topology
/// (traverser -> graph/policy, queue -> traverser) survives moves.
struct RestoredEngine {
  std::unique_ptr<graph::ResourceGraph> graph;
  std::unique_ptr<traverser::MatchPolicy> policy;
  std::unique_ptr<traverser::Traverser> traverser;
  std::unique_ptr<queue::JobQueue> queue;  // null when the snapshot had none
  graph::VertexId root = graph::kInvalidVertex;
  std::string policy_name;
  /// One past the highest restored traverser job id — what a front door
  /// wrapping this engine should hand out next.
  traverser::JobId next_job_id = 1;
};

/// The codec itself. A friend of ResourceGraph, Traverser and JobQueue:
/// serialisation is exact private state, not a public-API reconstruction.
class EngineSnapshot {
 public:
  /// Serialise graph + traverser (+ queue when given). The traverser must
  /// belong to `g`; the queue, when given, to `t`.
  static std::string save(const graph::ResourceGraph& g,
                          const traverser::Traverser& t,
                          const queue::JobQueue* q);

  /// Rebuild an engine from bytes produced by save(). Fails with
  /// invalid_argument on corrupt/truncated/unknown-version input and
  /// internal when a recorded span cannot be re-committed (which means
  /// the snapshot is inconsistent, not merely stale).
  static util::Expected<std::unique_ptr<RestoredEngine>> load(
      std::string_view bytes);
};

/// Obs-instrumented entry points: same as EngineSnapshot::save/load plus
/// snap_bytes / snap_save_us / snap_load_us accounting. Tools and the C
/// ABI call these; tests that want silence call the class directly.
std::string save_engine(const graph::ResourceGraph& g,
                        const traverser::Traverser& t,
                        const queue::JobQueue* q = nullptr);
util::Expected<std::unique_ptr<RestoredEngine>> load_engine(
    std::string_view bytes);

}  // namespace fluxion::snapshot
