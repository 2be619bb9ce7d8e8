// Planner: scalable scheduled-time-point management (paper §4.1).
//
// A Planner tracks the availability of a single resource pool (a quantity
// `total`) over a planning horizon. Jobs claim resources through *spans*
// <start, duration, amount>; the state changes they induce are recorded as
// *scheduled points* in one red-black tree keyed by time (the paper's SP
// tree). Each node also carries the minimum in-use amount over its
// subtree, so the one tree answers both "what is available at time t"
// (a floor lookup, then a window scan, O(log N) + O(points in window))
// and "which is the first point after t with `request` units free" (one
// pruned descent, O(log N)). The paper answers the latter from a second
// tree keyed by remaining amount (Algorithm 1); docs/planner.md gives the
// departure.
//
// A point exists only where the in-use amount changes; `in_use` holds for
// the half-open interval from the point to the next point.
//
// Thread-safety (see docs/extending.md, "Concurrency contract"): a planner
// belongs to one engine, which one thread drives. Every query is const
// and touches no planner state, so read-only callers (a
// snapshot::Replica's probes) never mutate their engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "rbtree/rbtree.hpp"
#include "util/expected.hpp"
#include "util/pool.hpp"
#include "util/time.hpp"

namespace fluxion::planner {

using util::Duration;
using util::TimePoint;

using SpanId = std::int64_t;
inline constexpr SpanId kInvalidSpan = -1;

/// One resource-state change: a node of the time-keyed tree.
struct ScheduledPoint : rbtree::RbNode {
  TimePoint at = 0;
  std::int64_t in_use = 0;  // amount claimed during [at, next point)
  std::int64_t subtree_min_in_use = 0;  // least in_use in this subtree
  int ref_count = 0;  // span endpoints anchored at this point
};

struct SpTraits {
  static bool less(const ScheduledPoint& a, const ScheduledPoint& b) noexcept {
    return a.at < b.at;
  }
  /// Recompute subtree_min_in_use from the children; true if it changed.
  static bool update(ScheduledPoint& n) noexcept {
    std::int64_t m = n.in_use;
    if (auto* l = static_cast<ScheduledPoint*>(n.left)) {
      m = std::min(m, l->subtree_min_in_use);
    }
    if (auto* r = static_cast<ScheduledPoint*>(n.right)) {
      m = std::min(m, r->subtree_min_in_use);
    }
    const bool changed = m != n.subtree_min_in_use;
    n.subtree_min_in_use = m;
    return changed;
  }
};

using SpTree = rbtree::RbTree<ScheduledPoint, SpTraits>;

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
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  TimePoint base_time() const noexcept { return base_; }
  TimePoint plan_end() const noexcept { return base_ + horizon_; }
  Duration horizon() const noexcept { return horizon_; }
  std::int64_t total() const noexcept { return total_; }
  const std::string& resource_type() const noexcept { return resource_type_; }
  std::size_t span_count() const noexcept { return spans_.size(); }
  std::size_t point_count() const noexcept { return sp_tree_.size(); }

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
  util::Expected<TimePoint> avail_time_first(TimePoint on_or_after,
                                             Duration duration,
                                             std::int64_t request) const;

  /// Grow or shrink the pool (elasticity, paper §5.5). Shrinking fails
  /// with resource_busy if any existing point would go over-subscribed.
  /// Touches no point: the tree's summaries are over in_use, not over
  /// the free amount.
  util::Status resize_total(std::int64_t new_total);

  /// Look up a committed span (test/introspection hook).
  const Span* find_span(SpanId id) const;

  /// O(N log N) structural self-check for tests: 0 <= in_use <= total,
  /// subtree minima exact, each point's ref_count equal to the span
  /// endpoints at its time (recounted from the spans), base point first.
  bool validate() const;

 private:
  ScheduledPoint* floor_point(TimePoint t) const;
  ScheduledPoint* get_or_create_point(TimePoint t);
  void maybe_collect(ScheduledPoint* p);
  void rekey(ScheduledPoint* p, std::int64_t new_in_use);
  bool window_fits(const ScheduledPoint* from, TimePoint end,
                   std::int64_t request) const;
  const ScheduledPoint* first_fit_after(TimePoint t,
                                        std::int64_t request) const;

  TimePoint base_;
  Duration horizon_;
  std::int64_t total_;
  std::string resource_type_;

  // The tree is the one index of the points. The pinned base point lives
  // inline, so a planner no span has touched allocates nothing; the rest
  // come from the slab pool (recycled across add/rem churn) and, being
  // trivially destructible, are freed with its slabs.
  static_assert(std::is_trivially_destructible_v<ScheduledPoint>);
  ScheduledPoint base_point_;
  util::Pool<ScheduledPoint> point_pool_;
  mutable SpTree sp_tree_;
  std::unordered_map<SpanId, Span> spans_;
  SpanId next_span_id_ = 0;
};

}  // namespace fluxion::planner
