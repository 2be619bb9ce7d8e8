// Planner: scalable scheduled-time-point management (paper §4.1).
//
// A Planner tracks the availability of a single resource pool (a quantity
// `total`) over a planning horizon. Jobs claim resources through *spans*
// <start, duration, amount>; the state changes they induce are recorded as
// *scheduled points*, each indexed in two red-black trees:
//
//   * SP tree  — keyed by time; answers "what is available at time t" and
//     drives window scans, both O(log N) + O(points in window).
//   * ET tree  — keyed by remaining resources, augmented with each
//     subtree's minimum scheduled time; answers "what is the earliest time
//     at which `request` units are free" (the paper's Algorithm 1,
//     FINDEARLIESTAT) in O(log N).
//
// A point exists only where the in-use amount changes; `in_use` holds for
// the half-open interval from the point to the next point.
//
// Thread-safety (see docs/extending.md, "Concurrency contract"): a planner
// belongs to one engine, which one thread drives. The const read path —
// avail_at, avail_during, avail_resources_during, avail_time_first_ro,
// find_span — touches no planner state, so read-only callers (a
// snapshot::Replica's probes) never mutate their engine; the mutating
// avail_time_first temporarily unlinks ET nodes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rbtree/rbtree.hpp"
#include "util/expected.hpp"
#include "util/pool.hpp"
#include "util/time.hpp"

namespace fluxion::planner {

using util::Duration;
using util::TimePoint;

using SpanId = std::int64_t;
inline constexpr SpanId kInvalidSpan = -1;

struct ScheduledPoint;

/// Hook placing a ScheduledPoint into the ET (earliest-time) tree. Keyed by
/// `remaining`; `subtree_min_time` is the augmented minimum `at` over the
/// node's subtree, enabling Algorithm 1.
struct EtNode : rbtree::RbNode {
  ScheduledPoint* point = nullptr;
  TimePoint subtree_min_time = 0;
};

/// One resource-state change. Lives in both trees (SP via inheritance, ET
/// via the embedded EtNode).
struct ScheduledPoint : rbtree::RbNode {
  TimePoint at = 0;
  std::int64_t in_use = 0;     // amount claimed during [at, next point)
  std::int64_t remaining = 0;  // total - in_use (the ET key)
  int ref_count = 0;           // span endpoints anchored at this point
  EtNode et;
};

struct SpTraits {
  static bool less(const ScheduledPoint& a, const ScheduledPoint& b) noexcept {
    return a.at < b.at;
  }
};

struct EtTraits {
  static bool less(const EtNode& a, const EtNode& b) noexcept {
    if (a.point->remaining != b.point->remaining) {
      return a.point->remaining < b.point->remaining;
    }
    return a.point->at < b.point->at;  // deterministic tiebreak
  }
  static void update(EtNode& n) noexcept {
    TimePoint m = n.point->at;
    if (auto* l = static_cast<EtNode*>(n.left)) {
      if (l->subtree_min_time < m) m = l->subtree_min_time;
    }
    if (auto* r = static_cast<EtNode*>(n.right)) {
      if (r->subtree_min_time < m) m = r->subtree_min_time;
    }
    n.subtree_min_time = m;
  }
};

using SpTree = rbtree::RbTree<ScheduledPoint, SpTraits>;
using EtTree = rbtree::RbTree<EtNode, EtTraits>;

/// A committed span (allocation or reservation) on this planner.
struct Span {
  SpanId id = kInvalidSpan;
  TimePoint start = 0;
  TimePoint last = 0;  // exclusive end
  std::int64_t planned = 0;
  ScheduledPoint* start_point = nullptr;
  ScheduledPoint* last_point = nullptr;
};

class Planner {
 public:
  /// A planner for `total` interchangeable units of `resource_type`,
  /// covering [base, base + horizon). Preconditions: total >= 0,
  /// horizon > 0.
  Planner(TimePoint base, Duration horizon, std::int64_t total,
          std::string_view resource_type);
  ~Planner();
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  TimePoint base_time() const noexcept { return base_; }
  TimePoint plan_end() const noexcept { return base_ + horizon_; }
  Duration horizon() const noexcept { return horizon_; }
  std::int64_t total() const noexcept { return total_; }
  const std::string& resource_type() const noexcept { return resource_type_; }
  std::size_t span_count() const noexcept { return spans_.size(); }
  std::size_t point_count() const noexcept { return points_.size(); }

  /// Claim `request` units over [start, start + duration). Fails with
  /// resource_busy if the window cannot satisfy the request, out_of_range
  /// if the window leaves the horizon, invalid_argument otherwise.
  util::Expected<SpanId> add_span(TimePoint start, Duration duration,
                                  std::int64_t request);

  /// Release a span previously returned by add_span.
  util::Status rem_span(SpanId id);

  /// Remaining (free) units at time t; total() before any span touches t.
  /// Fails with out_of_range when t is outside the horizon.
  util::Expected<std::int64_t> avail_at(TimePoint t) const;

  /// True iff `request` units are free throughout [at, at + duration).
  bool avail_during(TimePoint at, Duration duration,
                    std::int64_t request) const;

  /// Minimum free units over [at, at + duration) — what a quantity claim
  /// can take from this pool in that window.
  util::Expected<std::int64_t> avail_resources_during(TimePoint at,
                                                      Duration duration) const;

  /// Earliest t >= on_or_after such that avail_during(t, duration, request)
  /// (paper Algorithm 1 + SPANOK loop). Fails with unsatisfiable when
  /// request > total, resource_busy when no fit exists within the horizon.
  /// NOT thread-safe even conceptually: rejected ET candidates are
  /// unlinked from the tree for the duration of the search.
  util::Expected<TimePoint> avail_time_first(TimePoint on_or_after,
                                             Duration duration,
                                             std::int64_t request);

  /// Read-only avail_time_first for const probes: walks the SP tree
  /// in time order instead of set-aside iteration on the ET tree, so it
  /// never touches planner state. Returns exactly what avail_time_first
  /// returns — both visit feasible starts in increasing time order and
  /// accept the first span_ok window — at O(points past on_or_after)
  /// instead of O(log N) per candidate; the probe path trades that for
  /// leaving the planner untouched.
  util::Expected<TimePoint> avail_time_first_ro(TimePoint on_or_after,
                                                Duration duration,
                                                std::int64_t request) const;

  /// Grow or shrink the pool (elasticity, paper §5.5). Shrinking fails
  /// with resource_busy if any existing point would go over-subscribed.
  util::Status resize_total(std::int64_t new_total);

  /// Look up a committed span (test/introspection hook).
  const Span* find_span(SpanId id) const;

  /// O(N) structural self-check for tests: trees consistent with each
  /// other, remaining == total - in_use, augmented minima exact.
  bool validate() const;

 private:
  ScheduledPoint* floor_point(TimePoint t) const;
  ScheduledPoint* get_or_create_point(TimePoint t);
  void maybe_collect(ScheduledPoint* p);
  void rekey(ScheduledPoint* p, std::int64_t new_in_use);
  bool span_ok(const ScheduledPoint* start, Duration duration,
               std::int64_t request) const;
  EtNode* find_earliest_at(std::int64_t request) const;

  TimePoint base_;
  Duration horizon_;
  std::int64_t total_;
  std::string resource_type_;

  // Points live in the slab pool (recycled across add/rem churn); the
  // map indexes them by time and the trees hold intrusive views.
  util::Pool<ScheduledPoint> point_pool_;
  std::unordered_map<TimePoint, ScheduledPoint*> points_;
  mutable SpTree sp_tree_;
  mutable EtTree et_tree_;
  std::unordered_map<SpanId, Span> spans_;
  SpanId next_span_id_ = 0;
};

}  // namespace fluxion::planner
