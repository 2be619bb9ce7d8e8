// The resource graph store (paper §3.1-§3.3).
//
// Vertices are resource *pools*: one or more indistinguishable units of a
// type (a core, 16 GB of memory, 100 units of network bandwidth). Directed
// edges carry a relation name ("contains", "in", "conduit-of") and belong
// to a named *subsystem* ("containment", "network", "power", "storage");
// the union of same-subsystem edges and their endpoints forms that
// subsystem's hierarchy. Graph filtering (§3.3) exposes only the subsystems
// a scheduler cares about.
//
// Each vertex owns:
//   * schedule   — a Planner over the vertex's own units; quantity claims
//     and exclusive (whole-vertex) claims land here.
//   * x_checker  — a Planner counting shared walks through the vertex, so
//     an exclusive claim can verify no shared user overlaps its window.
//   * filter     — optionally, a PlannerMulti tracking aggregate counts of
//     lower-level resources in the subtree (the pruning filter of §3.4),
//     maintained by the traverser's Scheduler-Driven Filter Updates.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "planner/planner.hpp"
#include "planner/planner_multi.hpp"
#include "util/expected.hpp"
#include "util/interner.hpp"
#include "util/time.hpp"

namespace fluxion::snapshot {
class EngineSnapshot;
}

namespace fluxion::graph {

using util::Duration;
using util::InternId;
using util::TimePoint;

using VertexId = std::uint32_t;
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

/// Shared-use counter capacity: effectively unbounded concurrency for
/// shared walks, while still window-trackable in a Planner.
inline constexpr std::int64_t kSharedUseMax = 1 << 30;

struct Edge {
  VertexId dst = kInvalidVertex;
  InternId subsystem = util::kInvalidIntern;
  InternId relation = util::kInvalidIntern;
};

/// Operational status of a resource vertex (dynamic-resource layer).
///   up      — schedulable.
///   down    — failed/removed from service; never matched, and its
///             capacity is subtracted from every ancestor pruning filter.
///   drained — administratively draining: never matched for *new* work,
///             but existing allocations keep running, so filter capacity
///             is left in place (pruning stays optimistic for drains).
enum class ResourceStatus : std::uint8_t { up = 0, down = 1, drained = 2 };
inline constexpr std::size_t kStatusCount = 3;

const char* status_name(ResourceStatus s) noexcept;
std::optional<ResourceStatus> parse_status(std::string_view name) noexcept;

struct Vertex {
  VertexId id = kInvalidVertex;
  InternId type = util::kInvalidIntern;
  std::string basename;  // e.g. "node"
  std::string name;      // e.g. "node17"
  std::int64_t size = 1; // pool quantity
  std::int64_t uniq_id = -1;
  int rank = -1;
  std::string path;      // containment path, e.g. "/cluster0/rack0/node17"
  std::map<std::string, std::string> properties;
  bool alive = true;
  ResourceStatus status = ResourceStatus::up;
  /// Count of non-`up` vertices strictly below this one (containment).
  /// Zero means the whole subtree is clean, letting exclusive claims skip
  /// a subtree scan; maintained incrementally by set_status / attach /
  /// detach along the affected root-paths only.
  std::int32_t non_up_below = 0;
  VertexId containment_parent = kInvalidVertex;
  /// Incoming `contains` edges from any subsystem. A vertex with more than
  /// one (the §5.1 rabbit, contained by its rack and by the cluster) can be
  /// entered by a walk that bypasses its containment parent, so an
  /// exclusive claim on an ancestor never books it (see the traverser's
  /// covered claims).
  std::uint32_t contains_in = 0;
  /// Live covered claims on this vertex: claims booked by an exclusive
  /// ancestor claim of the same job, which hold no schedule span of their
  /// own. Maintained by the traverser; the span-freedom checks of
  /// set_status/detach_subtree and LocalityPolicy count them as use.
  std::int32_t covered_claims = 0;

  std::unique_ptr<planner::Planner> schedule;
  std::unique_ptr<planner::Planner> x_checker;
  std::unique_ptr<planner::PlannerMulti> filter;
};

class ResourceGraph {
 public:
  /// All per-vertex planners share this planning horizon.
  ResourceGraph(TimePoint plan_start, Duration horizon);

  TimePoint plan_start() const noexcept { return plan_start_; }
  Duration horizon() const noexcept { return horizon_; }

  // --- identifiers --------------------------------------------------------
  InternId intern_type(std::string_view name) { return types_.intern(name); }
  InternId intern_subsystem(std::string_view name) {
    return subsystems_.intern(name);
  }
  InternId intern_relation(std::string_view name) {
    return relations_.intern(name);
  }
  std::optional<InternId> find_type(std::string_view name) const {
    return types_.find(name);
  }
  const std::string& type_name(InternId id) const { return types_.name(id); }
  /// Number of interned resource types; type ids are dense in
  /// [0, type_count()), so dense per-type tables can size off this.
  std::size_t type_count() const noexcept { return types_.size(); }
  const std::string& subsystem_name(InternId id) const {
    return subsystems_.name(id);
  }
  const std::string& relation_name(InternId id) const {
    return relations_.name(id);
  }
  InternId containment() const noexcept { return containment_; }
  InternId contains_rel() const noexcept { return contains_; }
  InternId in_rel() const noexcept { return in_; }

  // --- construction -------------------------------------------------------
  /// Add a pool vertex of `size` units; planners are created eagerly.
  VertexId add_vertex(std::string_view type, std::string_view basename,
                      std::int64_t id_within_parent, std::int64_t size);

  /// As add_vertex, but with an explicit name (used when deserialising a
  /// graph whose names must be preserved, e.g. from JGF).
  VertexId add_vertex_named(std::string_view type, std::string_view basename,
                            std::string_view name, std::int64_t size);

  /// One directed edge.
  util::Status add_edge(VertexId src, VertexId dst, InternId subsystem,
                        InternId relation);

  /// Containment convenience: parent -contains-> child, child -in-> parent,
  /// sets the child's containment path and parent pointer. Keeps
  /// containment a forest: a child that already has a parent fails with
  /// `exists`; a self edge, or a child that is an ancestor of `parent`,
  /// fails with `invalid_argument`. Both are refused before any mutation.
  util::Status add_containment(VertexId parent, VertexId child);

  /// Install a pruning filter at `v` tracking the subtree totals of
  /// `types` (type intern ids). Call after the subtree below v is built.
  util::Status install_filter(VertexId v, const std::vector<InternId>& types);

  // --- dynamic status (paper §6 use cases) --------------------------------
  /// Set the status of v and its whole containment subtree. Transitions to
  /// `down` require the subtree to hold no schedule or shared-use spans
  /// and no covered claims (evict first) and subtract its capacity from every ancestor pruning
  /// filter — the SDFU-style O(paths) update that keeps aggregate pruning
  /// exact. Un-downing restores the capacity. All-or-nothing: on internal
  /// failure every half-applied resize is rolled back.
  util::Status set_status(VertexId v, ResourceStatus s);

  /// Live vertices currently carrying status `s`.
  std::size_t status_count(ResourceStatus s) const noexcept {
    return status_counts_[static_cast<std::size_t>(s)];
  }

  /// Like subtree_counts, but skipping `down` vertices — the capacity a
  /// pruning filter should advertise.
  std::map<InternId, std::int64_t> counted_subtree_counts(VertexId v) const;

  /// How many vertices of `type` were ever created (dead ones included) —
  /// the next collision-free instance number for grown fragments.
  std::size_t created_count(std::string_view type) const;

  // --- elasticity (paper §5.5) -------------------------------------------
  /// Detach v and its containment subtree: vertices are marked dead,
  /// edges from live vertices to them are removed, and every ancestor
  /// pruning filter gives up the subtree's aggregate capacity.
  /// Fails with resource_busy if any subtree vertex has active spans or
  /// covered claims.
  util::Status detach_subtree(VertexId v);

  /// Re-attach a subtree built with add_vertex/add_containment under
  /// `parent` (ancestor filters regain its capacity). The subtree root
  /// must have been created detached (no containment parent yet), and
  /// `parent` must not lie inside the subtree.
  util::Status attach_subtree(VertexId parent, VertexId subtree_root);

  /// Rollback helper for transactional grow: kill every vertex with
  /// id >= mark. Callers guarantee the range is a not-yet-attached
  /// fragment — no live vertex below `mark` has an edge into it.
  void discard_detached_from(VertexId mark);

  // --- access --------------------------------------------------------------
  std::size_t vertex_count() const noexcept { return vertices_.size(); }
  std::size_t live_vertex_count() const noexcept { return live_count_; }
  std::size_t edge_count() const noexcept { return edge_count_; }

  Vertex& vertex(VertexId v) { return vertices_[v]; }
  const Vertex& vertex(VertexId v) const { return vertices_[v]; }

  const std::vector<Edge>& out_edges(VertexId v) const { return out_[v]; }

  /// Live children of v via `relation` edges in `subsystem`.
  std::vector<VertexId> children(VertexId v, InternId subsystem,
                                 InternId relation) const;

  /// Live containment children (the traverser's hot path).
  std::vector<VertexId> containment_children(VertexId v) const;

  /// All live vertices of a type, in id order.
  std::vector<VertexId> vertices_of_type(InternId type) const;

  /// Vertex by containment path; nullopt when absent.
  std::optional<VertexId> find_by_path(std::string_view path) const;

  /// Sum of pool sizes per type over v's containment subtree (v included).
  std::map<InternId, std::int64_t> subtree_counts(VertexId v) const;

  // --- graph filtering (paper §3.3) ----------------------------------------
  /// Restrict traversal to these subsystems; empty means "containment".
  void set_subsystem_filter(std::vector<InternId> subsystems);
  bool subsystem_visible(InternId subsystem) const;

  /// Structural self-check for tests (paths, parents, filter consistency).
  bool validate() const;

 private:
  /// The binary snapshot codec reads and rebuilds exact private state
  /// (vertex slots including dead ones, by_type_ buckets, interner
  /// tables) that no public construction sequence can reproduce.
  friend class fluxion::snapshot::EngineSnapshot;

  util::Status resize_ancestor_filters(VertexId from,
                                       const std::map<InternId, std::int64_t>&
                                           delta,
                                       bool grow);
  void collect_subtree(VertexId v, std::vector<VertexId>& out) const;
  void bump_ancestor_non_up(VertexId from, std::int32_t delta);
  /// Whether u carries any allocation: a schedule or shared-use span, or a
  /// covered claim.
  bool in_use(VertexId u) const;
  /// Drop u's out-edges, releasing their `contains` in-degree.
  void clear_out_edges(VertexId u);
  std::size_t reset_uniform_non_up(VertexId v, ResourceStatus s);

  TimePoint plan_start_;
  Duration horizon_;
  util::Interner types_;
  util::Interner subsystems_;
  util::Interner relations_;
  InternId containment_;
  InternId contains_;
  InternId in_;
  std::vector<Vertex> vertices_;
  std::vector<std::vector<Edge>> out_;
  std::unordered_map<std::string, VertexId> by_path_;
  std::vector<std::vector<VertexId>> by_type_;
  std::vector<InternId> subsystem_filter_;
  std::size_t live_count_ = 0;
  std::size_t edge_count_ = 0;
  std::size_t status_counts_[kStatusCount] = {0, 0, 0};
  std::int64_t next_uniq_id_ = 0;
};

}  // namespace fluxion::graph
