// Job queue with a simulated clock and the queuing/backfilling policies
// the resource model interoperates with (paper §3.2, §3.5, §6.2-§6.3).
//
// Queue policies:
//   * fcfs                  — strict order; scheduling stops at the first
//                             job that cannot start now.
//   * conservative_backfill — every pending job is allocated or given a
//                             firm future reservation (this is what the
//                             paper's evaluation uses); later jobs backfill
//                             around earlier reservations but can never
//                             delay them, because the reservations hold
//                             real planner spans.
//   * easy_backfill         — only the head blocked job holds a
//                             reservation; everything else allocates
//                             opportunistically and is retried at each
//                             completion event.
//   * hybrid_backfill       — EASY's opportunistic pass, but up to
//                             `reservation_depth` blocked jobs hold firm
//                             reservations (0 = every blocked job, which
//                             converges on conservative guarantees).
//
// `set_reservation_depth(k)` bounds how many reservations conservative
// and hybrid backfill may hold at once; `set_traversal_mode` selects the
// traverser mode (scored vs first-match) every placement decision runs
// under.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "jobspec/jobspec.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "traverser/traverser.hpp"
#include "util/expected.hpp"

namespace fluxion::snapshot {
class EngineSnapshot;
}

namespace fluxion::queue {

using traverser::JobId;
using util::Duration;
using util::TimePoint;

enum class QueuePolicy {
  fcfs,
  conservative_backfill,
  easy_backfill,
  hybrid_backfill,
};

/// What to do with *running* jobs whose allocation intersects a downed or
/// shrunk subtree (reserved jobs are always re-planned).
enum class EvictPolicy { requeue, kill };

struct EvictResult {
  std::vector<JobId> requeued;   // running, cancelled, back in the queue
  std::vector<JobId> killed;     // running, cancelled for good
  std::vector<JobId> replanned;  // reserved, reservation dropped, pending
  /// First internal error from a span release (best-effort: the eviction
  /// itself always completes).
  util::Status released = util::Status::ok();
};

enum class JobState {
  pending,    // submitted, not yet placed
  held,       // administratively excluded from scheduling
  reserved,   // holds a future start reservation
  running,    // started
  completed,  // ran to its duration
  canceled,
  rejected,   // can never run (unsatisfiable)
};

const char* job_state_name(JobState s) noexcept;
const char* queue_policy_name(QueuePolicy p) noexcept;

/// Canonical signature of (spec shape, duration) — the key the
/// satisfiability cache uses, also the federation router's per-member
/// verdict-cache and locality-hash key. Two jobspecs with equal
/// signatures are interchangeable for satisfiability purposes.
std::string spec_signature(const jobspec::Jobspec& js);

/// Why a job is currently waiting. One cause is "in effect" at a time;
/// the queue charges elapsed simulated time to it on every transition,
/// decomposing each job's queue delay (submit -> start) into
/// blocked-on-resources vs parked-behind-its-own-reservation vs
/// held vs gated-on-dependencies.
enum class WaitCause : std::uint8_t {
  resources,    // pending, placement attempts fail (or not yet attempted)
  reservation,  // holds a future reservation, waiting for its start
  held,         // administratively held
  dependency,   // pending behind unfinished dependencies
};

const char* wait_cause_name(WaitCause c) noexcept;

/// Accumulated wait per cause, in simulated seconds.
struct WaitBreakdown {
  std::int64_t resources = 0;
  std::int64_t reservation = 0;
  std::int64_t held = 0;
  std::int64_t dependency = 0;
  std::int64_t total() const noexcept {
    return resources + reservation + held + dependency;
  }
  std::int64_t& of(WaitCause c) noexcept;
  std::int64_t of(WaitCause c) const noexcept;
};

struct Job {
  JobId id = -1;
  jobspec::Jobspec spec;
  TimePoint submit_time = 0;
  int priority = 0;  // higher runs first; FIFO within a priority level
  /// Workflow dependencies: this job may only start after every listed
  /// job has completed. Conservative backfilling reserves it no earlier
  /// than its dependencies' (known) end times; if a dependency is
  /// canceled or rejected, the job is rejected too.
  std::vector<JobId> depends_on;
  JobState state = JobState::pending;
  TimePoint start_time = -1;
  TimePoint end_time = -1;
  std::vector<traverser::ResourceUnit> resources;
  /// Wall-clock cost of this job's match call(s), for overhead studies.
  double match_seconds = 0.0;
  /// The spec as the satisfiability cache sees it; interned on the first
  /// cached lookup.
  struct CacheShape {
    std::int32_t id = -1;    // interned shape; -1 until the first lookup
    /// slot(N){unit{leaves}}: a failure answers larger, longer requests.
    bool dominable = false;
    std::int64_t n = 0;      // slot count N (dominable shapes; else 0)
    Duration d = 0;          // duration (dominable shapes; else 0)
  } cache_shape;
  /// Wait-time decomposition: `wait` holds closed intervals; the interval
  /// [wait_since, now) is still open and charged to `wait_cause` at the
  /// next transition (JobQueue::mark_wait).
  WaitBreakdown wait;
  TimePoint wait_since = 0;
  WaitCause wait_cause = WaitCause::resources;
  /// The last failed placement decision's rendered attribution — the same
  /// key/value fragments the eventlog "blocked" event carries (code,
  /// dominant blocker, per-reason tallies, earliest-feasible hint).
  /// Empty until a probe fails; tallies require traverser introspection.
  std::vector<std::pair<std::string, std::string>> last_blocked;
  TimePoint last_blocked_time = -1;
};

/// A pending job lifted out of one queue for import into another
/// (federation work stealing / rebalancing). Carries everything needed
/// for accounting continuity across queues: the spec, priority, the
/// *original* submit time, the wait decomposition accumulated so far, and
/// the job's event history so the destination eventlog tells the whole
/// story (the ids inside `history` are source-queue ids; import re-stamps
/// them with the new id).
struct ExportedJob {
  jobspec::Jobspec spec;
  int priority = 0;
  TimePoint submit_time = 0;
  WaitBreakdown wait;
  std::vector<obs::JobEvent> history;
};

struct QueueStats {
  std::uint64_t submitted = 0;
  std::uint64_t started_immediately = 0;  // allocated at submit/schedule time
  std::uint64_t reserved = 0;             // reservations granted, less
                                          // those released before start
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double total_match_seconds = 0.0;
  // Event-dispatch and satisfiability-cache effectiveness. obs reports
  // these and the other monotone tallies through the queue's obs::Source.
  std::uint64_t schedule_passes = 0;  // schedule() calls
  std::uint64_t events_fired = 0;    // starts + completions dispatched
  std::uint64_t heap_pops = 0;       // event-heap pops, incl. stale entries
  std::uint64_t match_calls = 0;     // traverser matches actually issued
  std::uint64_t match_skipped = 0;   // matches avoided by the cache
  /// The skips answered by a dominating failure rather than an identical
  /// one (a subset of match_skipped). Not carried by snapshots.
  std::uint64_t match_dominated = 0;
  std::uint64_t cache_invalidations = 0;  // cache drops after a mutation
  // Backfill reservation churn: monotone tallies of reservations granted
  // and of reservations released before their start fired (hold, cancel,
  // eviction re-plan, replan_reserved, broken-dependency reject). Unlike
  // `reserved`, which is decremented on every such release (so
  // reserved == reservations_made - reservations_dropped), these never
  // go down.
  std::uint64_t reservations_made = 0;
  std::uint64_t reservations_dropped = 0;
};

/// Derived schedule-quality metrics over terminal (completed) jobs.
struct QueueMetrics {
  std::size_t completed = 0;
  double avg_wait = 0;        // start - submit
  TimePoint max_wait = 0;
  double avg_turnaround = 0;  // end - submit
  TimePoint makespan = 0;     // latest end time
  std::int64_t node_seconds = 0;  // sum of node-claims x duration
};

class JobQueue {
 public:
  /// The traverser (and its graph/policy) must outlive the queue.
  JobQueue(traverser::Traverser& traverser, QueuePolicy policy);

  QueuePolicy policy() const noexcept { return policy_; }
  TimePoint now() const noexcept { return now_; }

  /// Enqueue a job; placement happens on the next schedule() pass.
  /// Scheduling order is (priority desc, submission order) — priority 0
  /// jobs behave FIFO. `depends_on` entries must be already-submitted ids.
  JobId submit(jobspec::Jobspec spec, int priority = 0,
               std::vector<JobId> depends_on = {});

  /// Run one scheduling pass at the current simulated time.
  void schedule();

  /// Earliest pending event (job start or completion) at or after now;
  /// kMaxTime when idle. An overdue reservation (start already in the
  /// past, e.g. after an eviction re-plan) fires at now, not now + 1.
  TimePoint next_event() const;

  /// Advance the simulated clock, firing starts/completions on the way.
  /// Fails with invalid_argument when `t` is before now(); an internal
  /// error from a completion-time span release is propagated after the
  /// clock and every remaining event have still been processed.
  util::Status advance_to(TimePoint t);

  /// Convenience driver: schedule + advance until every job reaches a
  /// terminal state (or no further progress is possible). Returns the
  /// final simulated time, or the first internal error encountered.
  util::Expected<TimePoint> run_to_completion();

  /// Reject the head pending job as never satisfiable. The drain step
  /// run_to_completion applies when the clock runs dry; exposed so a
  /// hierarchy coordinator driving several queues in lockstep can apply
  /// it too — without the duplicate schedule pass a nested
  /// run_to_completion would add. Returns false when nothing is pending.
  bool reject_head_never_satisfiable();

  /// Cancel a pending/held/reserved/running job.
  util::Status cancel(JobId id);

  /// Administrative hold: a pending job stops being considered by
  /// schedule(); a reserved job's reservation is released. Running jobs
  /// cannot be held.
  util::Status hold(JobId id);

  /// Release a held job back into the pending queue (priority order).
  util::Status release(JobId id);

  /// Dynamic-resource eviction: every job whose allocation touches
  /// `vertex` or its containment subtree loses its spans (reusing the
  /// traverser's span removal). Running jobs are requeued or killed per
  /// `policy`; reserved jobs always go back to pending for a fresh plan.
  /// Call *before* ResourceGraph::set_status(v, down) / shrink.
  EvictResult evict_on(graph::VertexId vertex, EvictPolicy policy);

  /// Drop every reservation back to pending for a fresh plan. Used after
  /// the graph grows: conservative-backfill reservations were computed
  /// against the old capacity and may now start earlier (the next
  /// schedule() pass re-places them, never later than before). Returns
  /// the re-planned job ids.
  std::vector<JobId> replan_reserved();

  /// Toggle the satisfiability cache (default on). The cache skips a
  /// match that failed identically since the last graph/traverser
  /// mutation, and a plain allocate of a slot(N){unit{leaves}} request
  /// that a recorded failure with no more units and no longer walltime
  /// dominates, so placements are identical either way; turning it off
  /// exists for differential tests and A/B measurements.
  void set_match_cache(bool on);
  bool match_cache() const noexcept { return match_cache_enabled_; }

  /// The queue matches on one thread. Kept only for callers that still
  /// pass 1; it does nothing, and any other value is reported through
  /// util::internal_error.
  void set_match_threads(std::size_t n);

  /// Traversal mode every placement decision runs under. Cached match
  /// failures stay across a switch — the cache key embeds the mode, so
  /// old-mode verdicts simply stop matching. Dominance holds in both
  /// modes: for a dominable shape each visitor claims N units whenever N
  /// qualify, so neither fails where the other would succeed.
  void set_traversal_mode(traverser::TraversalMode m) noexcept {
    traversal_mode_ = m;
  }
  traverser::TraversalMode traversal_mode() const noexcept {
    return traversal_mode_;
  }

  /// Bound on simultaneous backfill reservations for the conservative and
  /// hybrid policies (0 = unbounded, the default). EASY ignores it (its
  /// contract is exactly one); fcfs never reserves.
  void set_reservation_depth(std::size_t k) noexcept {
    reservation_depth_ = k;
  }
  std::size_t reservation_depth() const noexcept {
    return reservation_depth_;
  }

  /// Drop every cached match failure (counted in stats when the
  /// cache was non-empty). Mutations visible to the traverser are picked
  /// up automatically via its mutation epoch; this exists for external
  /// state changes the epoch cannot see.
  void invalidate_match_cache();

  /// Test hook: rewind a reserved job's window so its start is already
  /// due (states no public call sequence can reach organically —
  /// reservations are always planned in the future). Keeps the duration;
  /// used by the overdue-reservation regression tests.
  void test_rewind_reservation(JobId id, TimePoint start);

  /// Per-job structured eventlog (submit -> depend/hold -> probe ->
  /// blocked-with-reason -> reserve/alloc -> start -> evict/requeue ->
  /// finish/cancel), stamped with simulated time. Enabling also turns the
  /// traverser's match-failure introspection on so "blocked" events carry
  /// attribution; disabling leaves recorded events in place (clear() to
  /// drop them). Export with eventlog().jsonl().
  void set_eventlog(bool on);
  const obs::EventLog& eventlog() const noexcept { return log_; }
  obs::EventLog& eventlog() noexcept { return log_; }

  /// Human-readable account of one job: state, timeline, wait-time
  /// decomposition (including the still-open interval), and — when the
  /// job has a recorded blocked verdict — the dominant blocking resource
  /// type, per-reason rejection tallies, and the planner's
  /// earliest-feasible-time hint. The `resource-query explain` and
  /// `reapi_explain_json` surfaces render from this plus eventlog().
  std::string explain(JobId id) const;

  /// Lift a *pending* job out of this queue for import elsewhere
  /// (federation work stealing). Refused for jobs in any other state, for
  /// jobs with dependencies, and for jobs that other live jobs depend on
  /// — dependency ids are queue-local and would dangle across queues.
  /// Closes the open wait interval, records an "export" event, removes
  /// the job from this queue entirely, and returns it with its event
  /// history attached.
  util::Expected<ExportedJob> export_pending(JobId id);

  /// Admit an exported job under a fresh id in this queue, preserving its
  /// original submit time, priority and accumulated wait. Carried history
  /// is replayed into this queue's eventlog re-stamped with the new id,
  /// followed by an "import" event; the job then competes in normal
  /// (priority desc, arrival) order.
  JobId import_job(ExportedJob job);

  /// Pending job ids in scheduling order (head first).
  const std::deque<JobId>& pending_jobs() const noexcept { return pending_; }

  /// Backlog estimate: sum over pending jobs of requested units (all
  /// resource types) x duration. The federation's least-loaded router and
  /// its steal pass compare this across members; it is a static property
  /// of the queued specs, so identical queues always agree.
  std::int64_t pending_work() const;

  /// Label this queue as one federation member. When set, blocked-event
  /// attribution and explain() carry a "member" entry so rejections name
  /// the member that produced them; empty (the default) leaves every
  /// rendering byte-identical to a flat queue.
  void set_instance_label(std::string label) { label_ = std::move(label); }
  const std::string& instance_label() const noexcept { return label_; }

  const Job* find(JobId id) const;
  QueueMetrics metrics() const;
  const traverser::Traverser& traverser() const noexcept {
    return traverser_;
  }
  const std::vector<JobId>& all_jobs() const noexcept { return order_; }
  std::size_t pending_count() const noexcept { return pending_.size(); }
  const QueueStats& stats() const noexcept { return stats_; }

 private:
  /// The binary snapshot codec restores jobs, the pending order, the
  /// simulated clock and the eventlog, and rebuilds the event heap
  /// canonically from job state (stale entries are not preserved).
  friend class fluxion::snapshot::EngineSnapshot;

  /// One entry in the lazy-deletion event heap. Entries are immutable
  /// once pushed; a state transition that moves or cancels an event
  /// simply leaves the old entry behind to be recognised as stale on pop
  /// (its (state, time) no longer matches the job). Starts order before
  /// completions at the same timestamp, matching the historical firing
  /// order; job id breaks the remaining ties deterministically.
  struct Event {
    TimePoint time = 0;
    int kind = 0;  // 0 = start, 1 = completion
    JobId id = -1;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.id > b.id;
    }
  };
  static constexpr int kEventStart = 0;
  static constexpr int kEventCompletion = 1;

  void push_event(TimePoint time, int kind, JobId id) const;
  /// True when `ev` still describes the job's committed window.
  bool event_valid(const Event& ev) const;
  /// Pop stale entries off the heap top; counts every pop in heap_pops.
  void prune_stale_events() const;

  void try_place(Job& job, bool allow_reserve);
  /// Issue the traverser match for one placement decision; updates match
  /// timing on the job and the stats.
  util::Expected<traverser::MatchResult> run_match(Job& job,
                                                   bool allow_reserve,
                                                   TimePoint anchor);
  /// Set the obs depth gauge and add a depth sample.
  void sample_depth() const;
  /// Mark a reservation granted / released-before-start in stats and the
  /// live reservation count.
  void note_reservation_made();
  void note_reservation_dropped();
  /// Audit-mode cross-check of reservations_live_ against a recount over
  /// every job; a mismatch raises util::internal_error and the recount
  /// wins.
  void audit_reservation_count();
  /// Charge [wait_since, now) to the job's current wait cause, then make
  /// `next` the cause in effect. Idempotent at a fixed now.
  void mark_wait(Job& job, WaitCause next);
  /// Dependency-gate deferral: switch the wait cause and record one
  /// "depend" event on the transition (not per observation, so repeated
  /// schedule passes don't spam the log).
  void note_dependency_wait(Job& job);
  /// Terminal-reject bookkeeping shared by every reject site: closes the
  /// wait interval, flips the state, counts it in stats and records the
  /// "reject" event. Callers still manage pending_ membership and span
  /// release.
  void reject_job(Job& job, const char* why);
  /// Append one event to the job eventlog at the current simulated time
  /// (no-op while the log is disabled).
  void record_event(JobId id, const char* kind,
                    std::vector<std::pair<std::string, std::string>> args = {});
  /// Render the blocked-verdict attribution for a failed probe: the error
  /// code always; dominant type, per-reason tallies and the
  /// earliest-feasible hint when traverser introspection is on.
  std::vector<std::pair<std::string, std::string>> render_blocked(
      util::Errc code) const;
  util::Status fire_events_up_to(TimePoint t);

  /// Satisfiability-cache key: everything besides the slot count and the
  /// duration that shapes a match outcome. The match policy is left out:
  /// the traverser binds it at construction.
  struct CacheKey {
    std::int32_t shape = -1;
    bool reserve = false;  // allocate_orelse_reserve, else allocate
    traverser::TraversalMode mode = traverser::TraversalMode::scored;
    TimePoint anchor = 0;
    std::size_t depth = 0;  // reservation depth
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept;
  };
  /// One recorded failure: its code, the slot count and duration of the
  /// request, and the rendered attribution an identical replay emits (so a
  /// cache-hit "blocked" event is byte-identical to the walk's — the
  /// eventlog differential tests depend on this).
  struct BlockedVerdict {
    util::Errc code = util::Errc::internal;
    std::int64_t n = 0;
    Duration d = 0;
    std::vector<std::pair<std::string, std::string>> attrib;
  };
  /// Clear the cache when the traverser's mutation epoch moved since the
  /// last look; returns the cache key for (job, allow_reserve, anchor).
  CacheKey cache_key(Job& job, bool allow_reserve, TimePoint anchor);
  /// The recorded failure that answers `job` under `key` without a walk:
  /// an identical one, else (`dominated` set) a dominating one.
  const BlockedVerdict* find_verdict(const Job& job, const CacheKey& key,
                                     bool& dominated) const;
  /// Audit-mode check of a dominated skip: the read-only probe must fail
  /// with resource_busy, or util::internal_error is raised.
  void audit_dominated(const Job& job, TimePoint anchor) const;
  /// Insert a job into pending_ in (priority desc, arrival) order.
  void insert_pending(JobId id);
  /// Reset a job to pending and re-insert it in (priority, submission)
  /// order.
  void enqueue_pending(Job& job);
  /// Reject every pending/reserved job whose dependency chain is broken
  /// (transitively); folds release failures into `released`.
  void reject_broken_dependents(util::Status& released);
  /// Return a reserved job, whose traverser reservation is already
  /// released, to pending and record a "replan" on `on`.
  void replan(Job& job, const std::string& on);
  /// Re-plan every reserved job whose reservation starts before its
  /// dependency gate now allows (transitively) — the dependents of a job
  /// evict_on requeued; adds them to result.replanned.
  void replan_dependents(const std::string& on, EvictResult& result);
  /// Dependency gate: nullopt when a dependency failed (job must be
  /// rejected); otherwise the earliest allowed start (kMaxTime while a
  /// dependency has no known end yet).
  std::optional<TimePoint> dependency_gate(const Job& job) const;

  traverser::Traverser& traverser_;
  QueuePolicy policy_;
  std::string label_;  // federation member name; empty = flat queue
  traverser::TraversalMode traversal_mode_ = traverser::TraversalMode::scored;
  std::size_t reservation_depth_ = 0;  // 0 = unbounded
  TimePoint now_ = 0;
  JobId next_id_ = 1;
  std::unordered_map<JobId, Job> jobs_;
  std::vector<JobId> order_;    // submission order
  std::deque<JobId> pending_;   // not yet placed, submission order
  /// Jobs in state `reserved` right now: the budget the backfill passes
  /// compare against. Every transition into or out of `reserved` updates
  /// it (note_reservation_made/dropped, start firing).
  std::size_t reservations_live_ = 0;
  /// Some job in this queue has `depends_on`. Set on submit, never
  /// cleared; while false the dependent scans (cancel cascade, export
  /// refusal) have nothing to find and are skipped.
  bool has_dependencies_ = false;
  /// Mutable so next_event() const can account the stale-entry pops it
  /// performs while peeking.
  mutable QueueStats stats_;
  /// Min-heap of future starts/completions; mutable so next_event() can
  /// shed stale entries while it peeks.
  mutable std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events_;
  /// Satisfiability cache: the failures recorded under each key, valid
  /// for the traverser mutation epoch `cache_epoch_`.
  bool match_cache_enabled_ = true;
  std::uint64_t cache_epoch_ = 0;
  std::unordered_map<CacheKey, std::vector<BlockedVerdict>, CacheKeyHash>
      blocked_;
  /// Shape interner behind CacheShape::id; outlives epochs.
  std::unordered_map<std::string, std::int32_t> shapes_;
  /// Job-lifecycle eventlog.
  obs::EventLog log_;
  /// stats_ as obs reads it, under label_; last, as its destructor reads.
  obs::Source obs_source_;
};

}  // namespace fluxion::queue
