// MatchScratch: caller-owned scratch arena for the traverser's probe phase.
//
// A probe (the side-effect-free half of a match, see traverser.hpp) needs
// per-recursion-level working storage: the candidate list of the current
// selection point, the parent chain recorded while collecting candidates,
// and the aggregate per-type demand of the pending request. Historically
// these were a std::map and two std::unordered_maps built from scratch on
// every selection level of every match — allocator churn on the hottest
// path in the engine. MatchScratch replaces them with dense, reusable
// buffers:
//
//   * DenseDemand  — per-type amounts indexed by the graph's dense
//     InternId, with a touched-list so clearing is O(types touched);
//   * ParentMap    — parent-of-vertex indexed by VertexId, with a
//     generation stamp so clearing is O(1) (no rebuild on re-probe);
//   * Frame        — one (candidates, parent_of, demand) triple per
//     jobspec recursion depth, so nested selection levels never clobber
//     each other. Frames are heap-pinned (unique_ptr) because a frame
//     reference stays live across the recursion that may grow the vector.
//
// Ownership and threading: a MatchScratch belongs to exactly one caller at
// a time. The traverser keeps one for match(); a snapshot::Replica keeps
// its own for its read-only probes. The scratch also carries the probe's
// TraverserStats delta, which the traverser folds into its lifetime
// counters only when the probe is committed — an uncommitted probe leaves
// no trace in TraverserStats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/resource_graph.hpp"
#include "util/interner.hpp"

namespace fluxion::traverser {

using graph::VertexId;

/// How the traverser picks among viable candidates at a selection point.
/// `scored` is the full policy path: collect every candidate of the type,
/// rank them (order_candidates / plan_selection), then claim best-first.
/// `first_match` is the ultrafast path: claim candidates inline in
/// depth-first discovery order and unwind the walk as soon as the request
/// is covered — the policy scorer is never consulted. A first-match
/// selection is always also a valid scored selection (the per-candidate
/// feasibility checks are identical); only the preference order differs.
enum class TraversalMode { scored, first_match };

constexpr const char* traversal_mode_name(TraversalMode m) noexcept {
  return m == TraversalMode::first_match ? "first-match" : "scored";
}

struct TraverserStats {
  std::uint64_t visits = 0;          // vertex visits, lifetime
  std::uint64_t last_visits = 0;     // vertex visits, last match call
  std::uint64_t pruned = 0;          // subtrees skipped by filters, lifetime
  std::uint64_t status_pruned = 0;   // subtrees skipped as non-up, lifetime
  std::uint64_t match_attempts = 0;  // full selection attempts, lifetime
  std::uint64_t first_match_stops = 0;  // early walk unwinds, lifetime
  std::uint64_t postorder_rejects = 0;  // candidates dropped after descent
};

/// Why a vertex fell out of a selection walk. `none` means viable. The
/// taxonomy mirrors the checks the walk actually performs, in order:
/// pruning-filter rejection, non-up status, planner window conflicts
/// (busy), exclusive-claim overlap, unmet property requirements, and
/// post-order rejection (a candidate whose children could not be
/// satisfied after it was claimed).
enum class RejectReason : std::uint8_t {
  none = 0,
  filter,        // pruning filter cannot admit the pending demand
  status,        // vertex (or walk entry) is not up
  busy,          // planner time conflict in the requested window
  exclusivity,   // exclusive-claim overlap (incl. non-up descendants)
  requirements,  // property constraints unmet
  postorder,     // children unsatisfiable after the claim
};

constexpr const char* reject_reason_name(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::none: return "none";
    case RejectReason::filter: return "filter_pruned";
    case RejectReason::status: return "status_pruned";
    case RejectReason::busy: return "busy";
    case RejectReason::exclusivity: return "exclusivity";
    case RejectReason::requirements: return "requirements";
    case RejectReason::postorder: return "postorder";
  }
  return "unknown";
}

/// Match-failure attribution: per-resource-type tallies of candidates
/// lost to each RejectReason during one probe, plus the planner's
/// earliest-feasible-time hint for the request. Bounded by the graph's
/// type count (dense over InternId) — never by walk size. Tallying is
/// gated on `enabled` so the hot path pays one predictable branch when
/// introspection is off (Traverser::set_introspection). The filter,
/// status and postorder buckets are incremented at exactly the sites
/// that feed TraverserStats::{pruned, status_pruned, postorder_rejects},
/// so their totals reconcile with the stats delta of the same probe.
struct RejectionProfile {
  struct TypeTally {
    std::uint64_t filter_pruned = 0;
    std::uint64_t status_pruned = 0;
    std::uint64_t busy = 0;
    std::uint64_t exclusivity = 0;
    std::uint64_t requirements = 0;
    std::uint64_t postorder = 0;

    std::uint64_t total() const noexcept {
      return filter_pruned + status_pruned + busy + exclusivity +
             requirements + postorder;
    }
    std::uint64_t of(RejectReason r) const noexcept {
      switch (r) {
        case RejectReason::filter: return filter_pruned;
        case RejectReason::status: return status_pruned;
        case RejectReason::busy: return busy;
        case RejectReason::exclusivity: return exclusivity;
        case RejectReason::requirements: return requirements;
        case RejectReason::postorder: return postorder;
        case RejectReason::none: return 0;
      }
      return 0;
    }
  };

  bool enabled = false;
  /// Planner's earliest aggregate-feasible start for the failed request
  /// (root pruning filter lower bound); -1 when unknown/not applicable.
  std::int64_t earliest_hint = -1;

  void reset(std::size_t type_count) {
    for (util::InternId t : touched_) by_type_[t] = TypeTally{};
    touched_.clear();
    earliest_hint = -1;
    if (by_type_.size() < type_count) by_type_.resize(type_count);
  }

  void add(util::InternId type, RejectReason r) {
    if (type >= by_type_.size()) by_type_.resize(type + 1);
    TypeTally& t = by_type_[type];
    if (t.total() == 0) touched_.push_back(type);
    switch (r) {
      case RejectReason::filter: ++t.filter_pruned; break;
      case RejectReason::status: ++t.status_pruned; break;
      case RejectReason::busy: ++t.busy; break;
      case RejectReason::exclusivity: ++t.exclusivity; break;
      case RejectReason::requirements: ++t.requirements; break;
      case RejectReason::postorder: ++t.postorder; break;
      case RejectReason::none: break;
    }
  }

  const TypeTally& at(util::InternId type) const {
    static const TypeTally kEmpty{};
    return type < by_type_.size() ? by_type_[type] : kEmpty;
  }

  /// Types with at least one rejection, in first-rejection order.
  const std::vector<util::InternId>& touched() const noexcept {
    return touched_;
  }

  bool empty() const noexcept { return touched_.empty(); }

  /// Sum of one reason's tallies across every type.
  std::uint64_t total(RejectReason r) const noexcept {
    std::uint64_t n = 0;
    for (util::InternId t : touched_) n += by_type_[t].of(r);
    return n;
  }

  /// The resource type that absorbed the most rejections — the walk's
  /// dominant blocker. Ties break to the lowest InternId so the answer
  /// is deterministic. Returns false when nothing was rejected.
  bool dominant(util::InternId& type_out) const noexcept {
    bool any = false;
    std::uint64_t best = 0;
    for (util::InternId t : touched_) {
      const std::uint64_t n = by_type_[t].total();
      if (n == 0) continue;
      if (!any || n > best || (n == best && t < type_out)) {
        any = true;
        best = n;
        type_out = t;
      }
    }
    return any;
  }

 private:
  std::vector<TypeTally> by_type_;
  std::vector<util::InternId> touched_;
};

/// Per-type demand amounts, dense over the graph's type intern ids.
/// Replaces the per-match std::map<InternId, int64_t>: add/lookup are
/// array indexing, and reset only zeroes the entries actually touched.
class DenseDemand {
 public:
  /// Clear and make room for type ids in [0, type_count).
  void reset(std::size_t type_count) {
    for (util::InternId t : touched_) amounts_[t] = 0;
    touched_.clear();
    if (amounts_.size() < type_count) amounts_.resize(type_count, 0);
  }

  void add(util::InternId type, std::int64_t amount) {
    if (amount == 0) return;
    if (type >= amounts_.size()) amounts_.resize(type + 1, 0);
    if (amounts_[type] == 0) touched_.push_back(type);
    amounts_[type] += amount;
  }

  std::int64_t at(util::InternId type) const {
    return type < amounts_.size() ? amounts_[type] : 0;
  }

  /// Types with a nonzero amount, in first-touched order.
  const std::vector<util::InternId>& touched() const noexcept {
    return touched_;
  }

 private:
  std::vector<std::int64_t> amounts_;
  std::vector<util::InternId> touched_;
};

/// parent-of relation over VertexId, cleared in O(1) by bumping a
/// generation stamp instead of rebuilding a hash map per selection level.
class ParentMap {
 public:
  /// Invalidate all entries and make room for ids in [0, vertex_count).
  void reset(std::size_t vertex_count) {
    if (parent_.size() < vertex_count) {
      parent_.resize(vertex_count, graph::kInvalidVertex);
      stamp_.resize(vertex_count, 0);
    }
    if (++gen_ == 0) {  // stamp wrapped: flush stale stamps for real
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      gen_ = 1;
    }
  }

  bool contains(VertexId v) const {
    return v < stamp_.size() && stamp_[v] == gen_;
  }

  void set(VertexId v, VertexId parent) {
    stamp_[v] = gen_;
    parent_[v] = parent;
  }

  /// Parent of v in the current generation; kInvalidVertex when absent.
  VertexId find(VertexId v) const {
    return contains(v) ? parent_[v] : graph::kInvalidVertex;
  }

 private:
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t gen_ = 0;
};

class MatchScratch {
 public:
  /// Working storage for one jobspec recursion depth.
  struct Frame {
    std::vector<VertexId> candidates;
    ParentMap parent_of;
    DenseDemand demand;
  };

  /// The frame for `depth`, created on first use. The reference stays
  /// valid while deeper frames are created (frames are heap-pinned).
  Frame& frame(std::size_t depth) {
    while (frames_.size() <= depth) {
      frames_.push_back(std::make_unique<Frame>());
    }
    return *frames_[depth];
  }

  /// Stats delta accumulated by the probe using this scratch; folded into
  /// the traverser's lifetime counters when the probe is consumed.
  TraverserStats stats;

  /// Match-failure attribution for the probe using this scratch. Carried
  /// here (like `stats`) so the selection walk can tally rejections
  /// without threading an extra parameter through every recursion level;
  /// copied into the Probe when introspection is enabled.
  RejectionProfile rejections;

  /// Traversal mode of the probe currently using this scratch; set by
  /// Traverser::probe() so the selection walk need not thread it through
  /// every recursion level.
  TraversalMode mode = TraversalMode::scored;

 private:
  std::vector<std::unique_ptr<Frame>> frames_;
};

}  // namespace fluxion::traverser
