#include "planner/planner_multi.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace fluxion::planner {

using util::Errc;

PlannerMulti::PlannerMulti(TimePoint base, Duration horizon)
    : base_(base), horizon_(horizon) {
  assert(horizon > 0);
}

util::Expected<std::size_t> PlannerMulti::add_resource(std::string_view type,
                                                       std::int64_t total,
                                                       std::uint32_t id) {
  if (index_of(type) || index_of_id(id)) {
    return util::Error{Errc::exists, "add_resource: type already tracked"};
  }
  const std::size_t idx = planners_.size();
  planners_.push_back(std::make_unique<Planner>(base_, horizon_, total, type));
  if (id != kNoId) {
    if (by_id_.size() <= id) by_id_.resize(std::size_t{id} + 1, -1);
    by_id_[id] = static_cast<std::int32_t>(idx);
  }
  return idx;
}

std::optional<std::size_t> PlannerMulti::index_of(std::string_view type) const {
  for (std::size_t i = 0; i < planners_.size(); ++i) {
    if (planners_[i]->resource_type() == type) return i;
  }
  return std::nullopt;
}

util::Expected<SpanId> PlannerMulti::add_span(TimePoint start,
                                              Duration duration,
                                              Counts counts) {
  if (counts.size() != planners_.size()) {
    return util::Error{Errc::invalid_argument,
                       "add_span: counts arity mismatch"};
  }
  if (!avail_during(start, duration, counts)) {
    return util::Error{Errc::resource_busy,
                       "add_span: insufficient aggregate resources"};
  }
  std::vector<SpanId> ids(planners_.size(), kInvalidSpan);
  for (std::size_t i = 0; i < planners_.size(); ++i) {
    if (counts[i] == 0) continue;
    auto r = planners_[i]->add_span(start, duration, counts[i]);
    if (!r) {
      // Roll back: availability was pre-checked, so this indicates a bug,
      // but stay exception-safe regardless.
      for (std::size_t j = 0; j < i; ++j) {
        if (ids[j] != kInvalidSpan) (void)planners_[j]->rem_span(ids[j]);
      }
      return r.error();
    }
    ids[i] = *r;
  }
  const SpanId id = next_span_id_++;
  spans_.emplace(id, std::move(ids));
  if (obs::enabled()) obs::monitor().multi_span_adds.inc();
  return id;
}

util::Status PlannerMulti::rem_span(SpanId id) {
  auto it = spans_.find(id);
  if (it == spans_.end()) {
    return util::Error{Errc::not_found, "rem_span: unknown multi-span id"};
  }
  // Best-effort: remove every per-planner span we can and always retire
  // the multi-span entry, but surface a per-planner refusal (a cross-table
  // id mismatch — state corruption) instead of swallowing it.
  std::string detail;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    if (it->second[i] == kInvalidSpan) continue;
    auto st = planners_[i]->rem_span(it->second[i]);
    if (!st && detail.empty()) {
      detail = "rem_span: per-planner removal failed for " +
               std::string(planners_[i]->resource_type()) + ": " +
               st.error().message;
    }
  }
  spans_.erase(it);
  if (obs::enabled()) obs::monitor().multi_span_removes.inc();
  if (!detail.empty()) return util::internal_error(std::move(detail));
  return util::Status::ok();
}

bool PlannerMulti::avail_during(TimePoint at, Duration duration,
                                Counts counts) const {
  if (counts.size() != planners_.size()) return false;
  for (std::size_t i = 0; i < planners_.size(); ++i) {
    if (counts[i] == 0) continue;
    if (!planners_[i]->avail_during(at, duration, counts[i])) return false;
  }
  return true;
}

util::Expected<TimePoint> PlannerMulti::avail_time_first(
    TimePoint on_or_after, Duration duration, Counts counts) const {
  if (obs::enabled()) obs::monitor().multi_avail_time_first.inc();
  if (counts.size() != planners_.size()) {
    return util::Error{Errc::invalid_argument,
                       "avail_time_first: counts arity mismatch"};
  }
  // Anchor iteration on the first demanded type; candidates from it are
  // cross-checked against the rest, and rejections fast-forward the query
  // time to the earliest instant the failing type could recover.
  std::size_t anchor = counts.size();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      anchor = i;
      break;
    }
  }
  if (anchor == counts.size()) {
    // No demand: any time inside the horizon works.
    const TimePoint t = std::max(on_or_after, base_);
    if (duration <= 0 || t + duration > plan_end()) {
      return util::Error{Errc::resource_busy,
                         "avail_time_first: window leaves the horizon"};
    }
    return t;
  }

  TimePoint t = std::max(on_or_after, base_);
  while (true) {
    if (obs::enabled()) obs::monitor().multi_atf_rounds.inc();
    auto first = planners_[anchor]->avail_time_first(t, duration,
                                                     counts[anchor]);
    if (!first) return first.error();
    t = *first;
    TimePoint advance = t;
    bool all_ok = true;
    for (std::size_t i = 0; i < planners_.size(); ++i) {
      if (i == anchor || counts[i] == 0) continue;
      if (planners_[i]->avail_during(t, duration, counts[i])) continue;
      all_ok = false;
      auto ti = planners_[i]->avail_time_first(t, duration, counts[i]);
      if (!ti) return ti.error();
      advance = std::max(advance, *ti);
    }
    if (all_ok) return t;
    t = advance > t ? advance : t + 1;
  }
}

bool PlannerMulti::validate() const {
  for (const auto& p : planners_) {
    if (!p->validate()) return false;
  }
  for (const auto& [id, ids] : spans_) {
    if (ids.size() != planners_.size()) return false;
  }
  return true;
}

}  // namespace fluxion::planner
