// Replica: a warm read-only engine clone rebuilt from a binary snapshot.
//
// The serving split (ROADMAP "warm read replicas", and the writer/reader
// split of "Dynamic Fractional Resource Scheduling"): ONE writer engine
// commits mutations while N replicas — each rebuilt from the latest
// snapshot — absorb the read traffic: satisfiability checks,
// earliest-start (`avail_*`) probes, and the explain surface. A replica
// only ever drives the traverser's const probe() path (whose planner
// queries, avail_time_first included, are all const), so it never mutates
// its engine.
//
// Staleness: every replica is stamped with the writer's mutation_epoch at
// snapshot time. A caller that knows the writer's current epoch can ask
// stale_against(); answers from a stale replica are not wrong, they
// describe an older committed state — refresh() with a newer snapshot to
// catch up. Thread model: one Replica per thread (the scratch arena is
// single-owner); N threads get N replicas of the same bytes.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "snapshot/snapshot.hpp"
#include "traverser/match_scratch.hpp"

namespace fluxion::snapshot {

class Replica {
 public:
  /// Rebuild a replica from snapshot bytes (see EngineSnapshot::load for
  /// the failure modes).
  static util::Expected<std::unique_ptr<Replica>> open(std::string_view bytes);

  /// Swap in a newer snapshot. On failure the replica keeps serving its
  /// current state. Must be called by the replica's owning thread.
  util::Status refresh(std::string_view bytes);

  /// The writer's mutation epoch captured in the snapshot being served.
  std::uint64_t epoch() const noexcept;

  /// True when the writer's epoch moved past this replica's — counted in
  /// obs replica_stale so operators can watch refresh lag.
  bool stale_against(std::uint64_t writer_epoch) const;

  /// Could this spec ever run on an idle version of the graph?
  bool satisfiable(const jobspec::Jobspec& js) const;

  /// Earliest feasible start at or after `now` against the committed
  /// state; fails with resource_busy/unsatisfiable exactly as the
  /// writer's own probe would at the same epoch.
  util::Expected<util::TimePoint> earliest_start(const jobspec::Jobspec& js,
                                                 util::TimePoint now) const;

  /// The writer's explain surface, served read-only. Empty string when
  /// the snapshot carried no queue or the job is unknown.
  std::string explain(queue::JobId id) const;

  /// Queries served by this replica instance (also mirrored into obs
  /// replica_queries).
  std::uint64_t queries() const noexcept { return queries_; }

  const std::string& policy_name() const noexcept {
    return eng_->policy_name;
  }
  const graph::ResourceGraph& graph() const noexcept { return *eng_->graph; }
  const traverser::Traverser& traverser() const noexcept {
    return *eng_->traverser;
  }
  const queue::JobQueue* queue() const noexcept { return eng_->queue.get(); }

 private:
  explicit Replica(std::unique_ptr<RestoredEngine> eng)
      : eng_(std::move(eng)) {}

  void note_query() const;

  std::unique_ptr<RestoredEngine> eng_;
  /// Probe scratch; mutable because queries are logically const reads.
  mutable traverser::MatchScratch scratch_;
  mutable std::uint64_t queries_ = 0;
};

}  // namespace fluxion::snapshot
