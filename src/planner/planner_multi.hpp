// PlannerMulti: a bundle of Planners over the same horizon, one per
// resource type (paper §3.4, §4.1).
//
// Used in two places:
//   * at the graph root, to find the earliest time at which the aggregate
//     counts of ALL requested resource types can be satisfied
//     (PlannerMultiAvailTimeFirst in the paper), and
//   * as a pruning filter embedded in higher-level vertices (rack, node)
//     tracking aggregate availability of lower-level resources, updated by
//     the Scheduler-Driven Filter Update (SDFU) pass.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "planner/planner.hpp"
#include "util/expected.hpp"
#include "util/pool.hpp"

namespace fluxion::planner {

/// Request against a PlannerMulti: one count per tracked resource type,
/// aligned with the type order of add_resource calls. Count 0 means "no
/// demand on this type".
using Counts = std::span<const std::int64_t>;

class PlannerMulti {
 public:
  PlannerMulti(TimePoint base, Duration horizon);

  /// No caller id for a type (see add_resource).
  static constexpr std::uint32_t kNoId = UINT32_MAX;

  /// Register a resource type with `total` units. Returns its index.
  /// Fails with `exists` if the type is already tracked. `id` is the
  /// caller's dense integer id for the type (the graph passes its type
  /// InternId), so hot lookups can use index_of_id instead of hashing
  /// the name.
  util::Expected<std::size_t> add_resource(std::string_view type,
                                           std::int64_t total,
                                           std::uint32_t id = kNoId);

  std::size_t resource_count() const noexcept { return planners_.size(); }
  TimePoint base_time() const noexcept { return base_; }
  TimePoint plan_end() const noexcept { return base_ + horizon_; }

  /// Index of a type; nullopt if untracked.
  std::optional<std::size_t> index_of(std::string_view type) const;

  /// Index of the type registered under caller id `id`; nullopt if no
  /// tracked type carries that id.
  std::optional<std::size_t> index_of_id(std::uint32_t id) const {
    if (id >= by_id_.size() || by_id_[id] < 0) return std::nullopt;
    return static_cast<std::size_t>(by_id_[id]);
  }

  /// The per-type planner (index from add_resource / index_of).
  Planner& planner_at(std::size_t i) { return *planners_.at(i); }
  const Planner& planner_at(std::size_t i) const { return *planners_.at(i); }

  /// Claim counts[i] units of each tracked type over the window.
  /// Atomic: on failure nothing is claimed.
  util::Expected<SpanId> add_span(TimePoint start, Duration duration,
                                  Counts counts);

  util::Status rem_span(SpanId id);

  /// True iff every type with counts[i] > 0 has that much free throughout
  /// the window.
  bool avail_during(TimePoint at, Duration duration, Counts counts) const;

  /// Earliest t >= on_or_after where ALL types are simultaneously
  /// available (the paper's top-level loop over per-type planners). Each
  /// failed candidate advances t to the max of the failing planners' own
  /// earliest-fit times, so iterations are bounded by scheduled points,
  /// not horizon length.
  util::Expected<TimePoint> avail_time_first(TimePoint on_or_after,
                                             Duration duration,
                                             Counts counts) const;

  std::size_t span_count() const noexcept { return spans_.size(); }

  bool validate() const;

 private:
  TimePoint base_;
  Duration horizon_;
  std::vector<std::unique_ptr<Planner>> planners_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<std::int32_t> by_id_;  // caller id -> index, -1 = none
  // Multi-span id -> per-planner span ids (kInvalidSpan where count was 0).
  // Tail vectors cycle through the recycler so SDFU's add/rem churn reuses
  // their heap buffers instead of reallocating one per filter span.
  std::unordered_map<SpanId, std::vector<SpanId>> spans_;
  util::Recycler<SpanId> span_tails_;
  SpanId next_span_id_ = 0;
};

}  // namespace fluxion::planner
