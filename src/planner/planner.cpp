#include "planner/planner.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "obs/metrics.hpp"

namespace fluxion::planner {

using util::Errc;

namespace {
/// Three-way compare of a probe time against a point's time.
int cmp_time(TimePoint t, const ScheduledPoint& p) noexcept {
  if (t < p.at) return -1;
  if (t > p.at) return 1;
  return 0;
}
}  // namespace

Planner::Planner(TimePoint base, Duration horizon, std::int64_t total,
                 std::string_view resource_type)
    : base_(base),
      horizon_(horizon),
      total_(total),
      resource_type_(resource_type) {
  assert(horizon > 0);
  assert(total >= 0);
  // Pinned base point: the planner state is defined from base_time on.
  base_point_.at = base_;
  base_point_.ref_count = 1;  // never collected
  sp_tree_.insert(&base_point_);
}

ScheduledPoint* Planner::floor_point(TimePoint t) const {
  return sp_tree_.floor(t, cmp_time);
}

ScheduledPoint* Planner::get_or_create_point(TimePoint t) {
  ScheduledPoint* prev = floor_point(t);
  assert(prev != nullptr);  // base point pinned and t >= base checked earlier
  if (prev->at == t) return prev;
  // Recycled slot from the slab pool: span add/remove churn turns over
  // points constantly, and the pool turns that into pointer pops instead
  // of allocator round-trips.
  ScheduledPoint* raw = point_pool_.create();
  raw->at = t;
  raw->in_use = prev->in_use;  // state carries forward until changed
  raw->ref_count = 0;
  sp_tree_.insert(raw);
  if (obs::enabled()) obs::monitor().planner_point_inserts.inc();
  return raw;
}

void Planner::maybe_collect(ScheduledPoint* p) {
  if (p->ref_count > 0) return;  // the base point's pin keeps it
  // With no span anchored here the point no longer marks a state change.
  assert([&] {
    const ScheduledPoint* prev = SpTree::prev(p);
    return prev != nullptr && prev->in_use == p->in_use;
  }());
  sp_tree_.erase(p);
  point_pool_.destroy(p);
  if (obs::enabled()) obs::monitor().planner_point_removes.inc();
}

void Planner::rekey(ScheduledPoint* p, std::int64_t new_in_use) {
  if (obs::enabled()) obs::monitor().planner_rekeys.inc();
  p->in_use = new_in_use;
  SpTree::refresh(p);
}

util::Expected<SpanId> Planner::add_span(TimePoint start, Duration duration,
                                         std::int64_t request) {
  if (duration <= 0 || request <= 0) {
    return util::Error{Errc::invalid_argument,
                       "add_span: duration and request must be positive"};
  }
  if (request > total_) {
    return util::Error{Errc::unsatisfiable,
                       "add_span: request exceeds pool total"};
  }
  if (start < base_ || start + duration > plan_end()) {
    return util::Error{Errc::out_of_range,
                       "add_span: span leaves the planning horizon"};
  }
  if (!avail_during(start, duration, request)) {
    return util::Error{Errc::resource_busy,
                       "add_span: insufficient resources in window"};
  }

  ScheduledPoint* sp = get_or_create_point(start);
  ScheduledPoint* ep = get_or_create_point(start + duration);
  ++sp->ref_count;
  ++ep->ref_count;
  for (ScheduledPoint* q = sp; q != nullptr && q->at < start + duration;
       q = SpTree::next(q)) {
    rekey(q, q->in_use + request);
  }

  const SpanId id = next_span_id_++;
  spans_.emplace(id, Span{id, start, start + duration, request, sp, ep});
  if (obs::enabled()) obs::monitor().planner_span_adds.inc();
  return id;
}

util::Status Planner::rem_span(SpanId id) {
  auto it = spans_.find(id);
  if (it == spans_.end()) {
    return util::Error{Errc::not_found, "rem_span: unknown span id"};
  }
  const Span span = it->second;
  spans_.erase(it);

  for (ScheduledPoint* q = span.start_point;
       q != nullptr && q->at < span.last; q = SpTree::next(q)) {
    rekey(q, q->in_use - span.planned);
  }
  --span.start_point->ref_count;
  --span.last_point->ref_count;
  maybe_collect(span.start_point);
  maybe_collect(span.last_point);
  if (obs::enabled()) obs::monitor().planner_span_removes.inc();
  return util::Status::ok();
}

util::Expected<std::int64_t> Planner::avail_at(TimePoint t) const {
  if (obs::enabled()) obs::monitor().planner_avail_queries.inc();
  if (t < base_ || t >= plan_end()) {
    return util::Error{Errc::out_of_range, "avail_at: outside horizon"};
  }
  const ScheduledPoint* p = floor_point(t);
  assert(p != nullptr);
  return total_ - p->in_use;
}

bool Planner::avail_during(TimePoint at, Duration duration,
                           std::int64_t request) const {
  if (obs::enabled()) obs::monitor().planner_avail_queries.inc();
  if (duration <= 0 || request < 0) return false;
  if (at < base_ || at + duration > plan_end()) return false;
  if (request > total_) return false;
  return window_fits(floor_point(at), at + duration, request);
}

bool Planner::window_fits(const ScheduledPoint* from, TimePoint end,
                          std::int64_t request) const {
  assert(from != nullptr);
  for (const ScheduledPoint* q = from; q != nullptr && q->at < end;
       q = SpTree::next(q)) {
    if (q->in_use > total_ - request) return false;
  }
  return true;
}

util::Expected<std::int64_t> Planner::avail_resources_during(
    TimePoint at, Duration duration) const {
  if (obs::enabled()) obs::monitor().planner_avail_queries.inc();
  if (duration <= 0) {
    return util::Error{Errc::invalid_argument,
                       "avail_resources_during: nonpositive duration"};
  }
  if (at < base_ || at + duration > plan_end()) {
    return util::Error{Errc::out_of_range,
                       "avail_resources_during: outside horizon"};
  }
  const ScheduledPoint* p = floor_point(at);
  assert(p != nullptr);
  std::int64_t peak = p->in_use;
  for (const ScheduledPoint* q = SpTree::next(p);
       q != nullptr && q->at < at + duration; q = SpTree::next(q)) {
    peak = std::max(peak, q->in_use);
  }
  return total_ - peak;
}

const ScheduledPoint* Planner::first_fit_after(TimePoint t,
                                               std::int64_t request) const {
  // In time order, the points after t are, for each node where the search
  // path for t turns left (deepest first), that node and then its right
  // subtree. So the first fit lies under the deepest such node whose own
  // in_use or right subtree fits. A subtree whose least in_use is too
  // high holds no fit, which ends the path early.
  const std::int64_t limit = total_ - request;
  const auto fits = [limit](const rbtree::RbNode* n) {
    return n != nullptr &&
           static_cast<const ScheduledPoint*>(n)->subtree_min_in_use <= limit;
  };
  const ScheduledPoint* anchor = nullptr;
  for (const rbtree::RbNode* n = sp_tree_.root(); fits(n);) {
    const auto* p = static_cast<const ScheduledPoint*>(n);
    if (p->at <= t) {
      n = n->right;
      continue;
    }
    if (p->in_use <= limit || fits(n->right)) anchor = p;
    n = n->left;
  }
  if (anchor == nullptr || anchor->in_use <= limit) return anchor;
  // The fit is in the anchor's right subtree: find its earliest fit.
  for (const rbtree::RbNode* n = anchor->right; n != nullptr;) {
    const auto* p = static_cast<const ScheduledPoint*>(n);
    if (fits(n->left)) {
      n = n->left;
    } else if (p->in_use <= limit) {
      return p;
    } else {
      n = n->right;
    }
  }
  return nullptr;  // unreachable while the subtree minima are exact
}

util::Expected<TimePoint> Planner::avail_time_first(
    TimePoint on_or_after, Duration duration, std::int64_t request) const {
  if (obs::enabled()) obs::monitor().planner_avail_time_first.inc();
  if (duration <= 0 || request < 0) {
    return util::Error{Errc::invalid_argument,
                       "avail_time_first: bad duration or request"};
  }
  if (request > total_) {
    return util::Error{Errc::unsatisfiable,
                       "avail_time_first: request exceeds pool total"};
  }
  on_or_after = std::max(on_or_after, base_);
  if (on_or_after + duration > plan_end()) {
    return util::Error{Errc::resource_busy,
                       "avail_time_first: window leaves the horizon"};
  }
  // An earliest feasible start is either the query time itself or a
  // scheduled point: moving the start later within a gap between points
  // only widens the window end, so feasibility can begin only where the
  // floor state changes.
  if (avail_during(on_or_after, duration, request)) return on_or_after;

  // Visit the points past on_or_after with `request` units free, in time
  // order, and accept the first whose whole window fits (the paper's
  // SPANOK).
  for (const ScheduledPoint* pt = first_fit_after(on_or_after, request);
       pt != nullptr; pt = first_fit_after(pt->at, request)) {
    if (obs::enabled()) obs::monitor().planner_atf_probes.inc();
    if (pt->at + duration > plan_end()) break;  // later candidates only worsen
    if (window_fits(pt, pt->at + duration, request)) return pt->at;
  }
  return util::Error{Errc::resource_busy,
                     "avail_time_first: no feasible start within horizon"};
}

util::Status Planner::resize_total(std::int64_t new_total) {
  if (new_total < 0) {
    return util::Error{Errc::invalid_argument, "resize_total: negative total"};
  }
  for (const ScheduledPoint* p = sp_tree_.min(); p != nullptr;
       p = SpTree::next(p)) {
    if (p->in_use > new_total) {
      return util::Error{Errc::resource_busy,
                         "resize_total: existing spans exceed new total"};
    }
  }
  total_ = new_total;
  return util::Status::ok();
}

const Span* Planner::find_span(SpanId id) const {
  auto it = spans_.find(id);
  return it == spans_.end() ? nullptr : &it->second;
}

bool Planner::validate() const {
  if (sp_tree_.validate() < 0) return false;
  if (sp_tree_.min() != &base_point_ || base_point_.at != base_) return false;

  // Recount the span endpoints at each time from spans_ alone, plus the
  // base point's pin: every point must carry exactly its count, and every
  // counted time must have a point.
  std::map<TimePoint, int> anchors{{base_, 1}};
  for (const auto& [id, span] : spans_) {
    if (span.start_point->at != span.start) return false;
    if (span.last_point->at != span.last) return false;
    if (span.planned <= 0 || span.start >= span.last) return false;
    ++anchors[span.start];
    ++anchors[span.last];
  }

  const ScheduledPoint* prev = nullptr;
  for (const ScheduledPoint* p = sp_tree_.min(); p != nullptr;
       p = SpTree::next(p)) {
    if (p->in_use < 0 || p->in_use > total_) return false;
    if (prev != nullptr) {
      if (prev->at >= p->at) return false;
      // A point must mark a change or anchor a span endpoint.
      if (prev->in_use == p->in_use && p->ref_count == 0) return false;
    }
    const auto it = anchors.find(p->at);
    if (p->ref_count != (it == anchors.end() ? 0 : it->second)) return false;
    if (it != anchors.end()) anchors.erase(it);
    prev = p;
  }
  if (!anchors.empty()) return false;

  // Subtree minima must be exact: recompute them bottom-up by brute force.
  struct Rec {
    bool exact = true;
    std::int64_t min_of(const rbtree::RbNode* n) {
      if (n == nullptr) return INT64_MAX;
      const auto* p = static_cast<const ScheduledPoint*>(n);
      const std::int64_t m =
          std::min({p->in_use, min_of(n->left), min_of(n->right)});
      if (m != p->subtree_min_in_use) exact = false;
      return m;
    }
  } rec;
  rec.min_of(sp_tree_.root());
  return rec.exact;
}

}  // namespace fluxion::planner
