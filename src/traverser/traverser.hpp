// Depth-first traverser: matches an abstract resource request graph
// (jobspec) against the resource graph store (paper §3.2, §3.4, Figure 1c).
//
// Responsibilities:
//   * walk the containment subsystem depth-first from the root, matching
//     request vertices to resource vertices (levels not named in the
//     request are passed through). One walk serves both traversal modes
//     through a visitor: scored mode collects the candidates and lets the
//     policy rank them; first-match mode claims each one as it is found
//     and stops once the request is covered;
//   * honour exclusivity: everything under a slot — and anything flagged
//     exclusive — is claimed whole; shared walks are recorded in each
//     vertex's x_checker so later exclusive claims can detect overlap;
//   * consult pruning filters before descending (a subtree whose aggregate
//     availability cannot cover even one instance of the pending request
//     is skipped) — paper §3.4;
//   * on success, commit planner spans and perform Scheduler-Driven
//     Filter Updates (SDFU) along the selected vertices' ancestor paths;
//   * for ALLOCATE_ORELSE_RESERVE, find the earliest feasible start by
//     probing `now` and then each future release time, fast-forwarded by
//     the root pruning filter's PlannerMultiAvailTimeFirst when present.
//
// The match *policy* — which of several viable candidates to prefer — is a
// callback object (paper §3.5); implementations live in policy/.
//
// Probe/commit split: a match is two phases. `probe()` is strictly
// read-only — it walks the graph, builds a Selection into a caller-owned
// MatchScratch, and captures the mutation epoch it saw. `commit()`
// validates the probe's epoch, writes planner spans and SDFU filter
// updates, and folds the probe's stats delta into the traverser.
// `match()` is exactly probe()+commit() over the traverser's own scratch.
// Read-only callers (snapshot::Replica, the first-match oracle test) use
// probe() alone. The engine is single-threaded; see docs/extending.md,
// "Concurrency contract".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/resource_graph.hpp"
#include "jobspec/jobspec.hpp"
#include "traverser/match_scratch.hpp"
#include "util/expected.hpp"
#include "util/time.hpp"

namespace fluxion::snapshot {
class EngineSnapshot;
}

namespace fluxion::traverser {

using graph::VertexId;
using util::Duration;
using util::TimePoint;

using JobId = std::int64_t;

enum class MatchOp {
  allocate,                  // at `now` or fail
  allocate_orelse_reserve,   // earliest feasible start, possibly future
  satisfiability,            // could this ever run on an idle system?
  allocate_with_satisfiability,  // allocate at `now`; on failure, report
                                 // resource_busy vs unsatisfiable precisely
};

/// One selected resource: `units` of vertex v for the job's window.
/// `exclusive` marks slot-contained or explicitly exclusive claims.
struct ResourceUnit {
  VertexId vertex = graph::kInvalidVertex;
  std::int64_t units = 0;
  bool exclusive = false;
};

struct MatchResult {
  JobId job = -1;
  TimePoint at = 0;
  Duration duration = 0;
  bool reserved = false;  // true when the start is in the future
  std::vector<ResourceUnit> resources;
};

/// Policy callback: ranks candidate vertices at each selection point.
class MatchPolicy {
 public:
  virtual ~MatchPolicy() = default;
  virtual std::string name() const = 0;

  /// Order `candidates` best-first. Called for every typed selection.
  virtual void order_candidates(const graph::ResourceGraph& g,
                                std::vector<VertexId>& candidates) const = 0;

  /// Set-level hook invoked when `needed` instances will be drawn from
  /// `candidates`; the default just orders them. Variation-aware
  /// scheduling overrides this to minimise performance-class spread.
  virtual void plan_selection(const graph::ResourceGraph& g,
                              std::vector<VertexId>& candidates,
                              std::int64_t needed) const {
    (void)needed;
    order_candidates(g, candidates);
  }
};

class Traverser {
 private:
  // Declared ahead of the public section so Probe can embed a Selection;
  // external code holds Probes opaquely and never names these types.
  struct Claim {
    VertexId vertex;
    std::int64_t units;
    bool exclusive;       // claimed under a slot / exclusive request
    bool whole_instance;  // full-vertex claim: SDFU uses subtree counts
    bool under_exclusive; // an ancestor claim already covers it for SDFU
    // An exclusive whole-instance ancestor claim of the same job and
    // window books it: no schedule span, no planner check (see
    // covered_under).
    bool covered;
  };

  struct Selection {
    std::vector<Claim> claims;
    std::vector<VertexId> shared_marks;  // deduplicated, ordered
    std::unordered_map<VertexId, std::int64_t> pending_units;
    std::unordered_set<VertexId> pending_excl;
    std::unordered_set<VertexId> shared_set;

    struct Checkpoint {
      std::size_t claims;
      std::size_t shared;
    };
    Checkpoint checkpoint() const {
      return {claims.size(), shared_marks.size()};
    }
    void rollback(const Checkpoint& cp);
    void push_claim(const Claim& c);
    bool mark_shared(VertexId v);  // false if already marked
  };

 public:
  /// The policy must outlive the traverser; the graph is mutated by
  /// match/cancel (planner spans, filter spans).
  Traverser(graph::ResourceGraph& g, VertexId root, const MatchPolicy& policy);

  /// Match a jobspec at time `now` per `op`. On success the resources are
  /// committed under `job` until cancel(job). Implemented as
  /// probe() + commit() over the traverser's own scratch. The first
  /// overload uses the traverser's default traversal mode; the second
  /// selects the mode per call (how the queue applies its configured
  /// mode).
  util::Expected<MatchResult> match(const jobspec::Jobspec& js, MatchOp op,
                                    TimePoint now, JobId job);
  util::Expected<MatchResult> match(const jobspec::Jobspec& js, MatchOp op,
                                    TimePoint now, JobId job,
                                    TraversalMode mode);

  /// The read-only half of a match: the outcome of the full time search
  /// and selection walk, captured against the mutation epoch it saw, with
  /// nothing committed. Consumed at most once by commit(); a probe that
  /// is never committed leaves no trace in the traverser.
  struct Probe {
    JobId job = -1;
    MatchOp op = MatchOp::allocate;
    TimePoint now = 0;
    std::uint64_t epoch = 0;   // mutation_epoch() observed by the probe
    bool ran = false;          // passed validation; stats delta is live
    bool ok = false;           // a feasible selection was found
    util::TimeWindow window{}; // selected window when ok
    util::Error error{};       // failure when !ok
    TraverserStats delta{};    // this probe's stats contribution
    std::chrono::steady_clock::time_point t0{};
    Selection sel;             // the selection commit() will apply
    /// Match-failure attribution for this probe's walk; populated only
    /// when introspection is enabled (empty + disabled otherwise). Rides
    /// in the probe so an uncommitted probe leaves no trace, exactly like
    /// `delta`.
    RejectionProfile rejections;
  };

  Probe probe(const jobspec::Jobspec& js, MatchOp op, TimePoint now,
              JobId job, MatchScratch& scratch) const;
  Probe probe(const jobspec::Jobspec& js, MatchOp op, TimePoint now,
              JobId job, MatchScratch& scratch, TraversalMode mode) const;

  /// The serial half: validate the probe against the current epoch, apply
  /// its selection (planner spans + SDFU filter updates), fold its stats
  /// delta, and run the op accounting/audit hooks. A stale probe (epoch
  /// moved since probe time) fails with resource_busy — callers re-probe.
  util::Expected<MatchResult> commit(Probe&& p);

  /// Release everything held by `job`.
  util::Status cancel(JobId job);

  /// Re-establish a previously-emitted allocation verbatim — the restart
  /// path: a resource manager replays its R documents after a crash so
  /// the new scheduler instance starts with the true cluster state.
  /// Claims are committed exactly as recorded (no matching); fails with
  /// resource_busy if any claim no longer fits, exists for duplicate ids.
  util::Expected<MatchResult> restore(const MatchResult& allocation);

  // --- elastic jobs (paper §5.5: malleability) ------------------------------
  /// Add `extra` resources to a live job for the remainder of its window
  /// ([max(now, start), end)). On success the job's recorded resource set
  /// is extended; the window itself never changes. Fails with
  /// resource_busy when the extra resources cannot be matched.
  util::Expected<MatchResult> grow(JobId job, const jobspec::Jobspec& extra,
                                   TimePoint now);

  /// Release the job's claims on `vertex` and everything beneath it
  /// (containment), keeping the rest of the allocation. Pruning filters
  /// are re-derived from the remaining claims. Fails with not_found when
  /// the job holds nothing there.
  util::Status shrink(JobId job, VertexId vertex);

  /// Walltime extension: lengthen the job's window by `extra`. Succeeds
  /// only if every held resource is still free for [old_end, old_end +
  /// extra) — i.e. no later reservation collides. All spans (claims,
  /// shared marks, filters) are extended atomically.
  util::Status extend(JobId job, Duration extra);

  /// Active (allocated or reserved) job count.
  std::size_t job_count() const noexcept { return jobs_.size(); }

  /// Jobs holding at least one claim on `vertex` or below it (containment
  /// path prefix), in ascending id order — the set a dynamic down/shrink
  /// must evict. Reserved jobs are included: their planned spans block the
  /// subtree just like running ones.
  std::vector<JobId> jobs_on_subtree(VertexId vertex) const;

  /// Look up a job's committed window; nullptr when unknown.
  const MatchResult* find_job(JobId job) const;

  const TraverserStats& stats() const noexcept { return stats_; }

  /// Monotone mutation epoch: bumped whenever committed scheduler state
  /// may have changed — successful match/restore/grow/cancel/shrink/
  /// extend, a cancel/shrink/extend that failed with Errc::internal
  /// (best-effort repair may have left spans moved), and external graph
  /// changes reported via note_external_mutation(). Cleanly failed
  /// attempts (not_found, resource_busy) touch nothing and do NOT move
  /// the epoch. Consumers (the queue's satisfiability cache, replica
  /// staleness checks) compare epochs to decide whether what they saw is
  /// still current.
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

  /// Report a mutation the traverser cannot see (graph grow/shrink,
  /// status flips) so epoch-based caches invalidate. Called by
  /// dynamic::DynamicResources.
  void note_external_mutation() noexcept { ++mutation_epoch_; }

  /// Zero the lifetime counters (the `clear-stats` command). The global
  /// obs::monitor() is reset separately by its owner.
  void clear_stats() noexcept { stats_ = TraverserStats{}; }

  /// Default traversal mode for match()/probe() calls that do not pass
  /// one explicitly. First-match stops the selection walk at the first
  /// feasible slot and never calls the policy scorer (see TraversalMode).
  void set_traversal_mode(TraversalMode m) noexcept { mode_ = m; }
  TraversalMode traversal_mode() const noexcept { return mode_; }

  /// Match-failure attribution gate. When on, every probe tallies a
  /// RejectionProfile (per-type rejection reasons + the planner's
  /// earliest-feasible hint) and commit() keeps the last consumed
  /// probe's profile for last_rejections(). When off — the default —
  /// the walk pays one predictable branch per rejection and nothing
  /// else, so counter-gated perf baselines are unaffected.
  void set_introspection(bool on) noexcept { introspect_ = on; }
  bool introspection() const noexcept { return introspect_; }

  /// Attribution of the most recently consumed (committed) probe —
  /// meaningful after a failed match when introspection is on. The
  /// profile of a successful match is typically sparse (rejections the
  /// walk stepped over on its way to a selection).
  const RejectionProfile& last_rejections() const noexcept {
    return last_rejections_;
  }

  /// last_rejections() rendered as key/value JSON fragments — ("dominant",
  /// quoted type name), one (reason, count) per non-zero reason bucket,
  /// and ("hint", earliest-feasible time) when known. The shared currency
  /// of the explain surfaces: the queue's eventlog "blocked" events,
  /// `resource-query explain` and `reapi_explain_json` all carry exactly
  /// these fragments.
  std::vector<std::pair<std::string, std::string>> explain_args() const;

  /// The match policy this traverser ranks candidates with (scored mode
  /// only). Exposed so callers that key caches on match behaviour — the
  /// queue's satisfiability cache — can fold the policy identity in.
  const MatchPolicy& policy() const noexcept { return policy_; }

  const graph::ResourceGraph& graph() const noexcept { return g_; }

  /// Verify all pruning filters against a from-scratch recount of the
  /// planner spans below them (test hook, O(V * jobs)).
  bool verify_filters() const;

  /// Deep structural audit: every vertex planner (schedule, x_checker,
  /// filter) validates, verify_claims() and verify_filters() hold.
  /// Expensive; the oracle behind the post-mutation audit hook below.
  bool audit() const;

  /// Claim bookkeeping recounted from the job records (test hook): each
  /// schedule span belongs to one booked claim, each vertex's
  /// covered-claim count matches, and each covered claim has a booked
  /// exclusive whole-instance ancestor claim of its own job and window,
  /// reached through single-parent vertices, with no span of its own job
  /// on the covered vertex.
  bool verify_claims() const;

  /// Post-mutation audit hook (test/fuzzing aid). When enabled, every
  /// compound mutation (match, cancel, grow, shrink, extend, restore)
  /// re-runs audit() before returning and converts a divergence into an
  /// Errc::internal failure — so property tests catch corruption at the
  /// mutation that caused it, not at the end of the run.
  void set_audit(bool enabled) noexcept { audit_enabled_ = enabled; }
  bool audit_enabled() const noexcept { return audit_enabled_; }

  /// Test hook: make the next internal planner operation tagged `point`
  /// fail, driving the rollback paths that no public call sequence can
  /// reach (they only fire on state corruption). Points: "apply:claim",
  /// "apply:shared", "apply:filter", "rebuild:add", "shrink:rem",
  /// "extend:claim", "extend:shared", "extend:filter".
  void fail_next(std::string point) { fault_point_ = std::move(point); }

 private:
  /// The binary snapshot codec serialises job records (claims, shared
  /// marks, filter spans) and re-commits them span by span on load.
  friend class fluxion::snapshot::EngineSnapshot;

  /// One committed claim: which vertex, how much, over which window (grow
  /// extensions may cover a suffix of the job window), and the schedule
  /// span backing it.
  struct CommittedClaim {
    Claim claim;
    util::TimeWindow window;
    planner::SpanId span;
  };

  /// One committed pruning-filter span. Window and counts are recorded so
  /// failed rebuilds/extensions can restore the exact prior span (the
  /// planner retires span ids on removal).
  struct FilterSpan {
    VertexId vertex;
    planner::SpanId span;
    util::TimeWindow window;
    std::vector<std::int64_t> counts;
  };

  struct JobRecord {
    MatchResult result;
    std::vector<CommittedClaim> claims;
    // (vertex, span) pairs to undo on cancel.
    std::vector<std::pair<VertexId, planner::SpanId>> shared_spans;
    std::vector<FilterSpan> filter_spans;
  };

  // --- selection (probe path: const, scratch-backed) ------------------------
  /// Match every request of `js` over `w` into `sel`: the single entry of
  /// the selection walk (probe and grow). Refuses at once while another
  /// job holds the root during `w`.
  bool select_all(const jobspec::Jobspec& js, const util::TimeWindow& w,
                  Selection& sel, MatchScratch& sc) const;
  bool satisfy(const jobspec::Resource& req, VertexId under,
               std::int64_t multiplier, bool under_slot, bool under_excl,
               const util::TimeWindow& w, Selection& sel, std::size_t depth,
               MatchScratch& sc) const;
  bool satisfy_instances(const jobspec::Resource& req, VertexId under,
                         std::int64_t needed, std::int64_t needed_max,
                         bool exclusive, bool under_excl,
                         const util::TimeWindow& w, Selection& sel,
                         std::size_t depth, MatchScratch& sc) const;
  bool satisfy_units(const jobspec::Resource& req, VertexId under,
                     std::int64_t needed, std::int64_t needed_max,
                     bool exclusive, bool under_excl,
                     const util::TimeWindow& w, Selection& sel,
                     std::size_t depth, MatchScratch& sc) const;

  /// The candidate walk of both traversal modes: depth-first from `from`
  /// (inclusive) through shareable, unpruned containment edges, skipping
  /// non-up subtrees and recording each vertex's parent for the shared
  /// marks. Hands every vertex of `type` it reaches to `visit`, which
  /// returns true to stop the walk; returns whether it stopped. Counts
  /// only into `sc.stats`.
  template <class Visit>
  bool walk_candidates(VertexId from, util::InternId type,
                       const util::TimeWindow& w, const Selection& sel,
                       const DenseDemand& per_instance_demand,
                       ParentMap& parent_of, MatchScratch& sc,
                       const Visit& visit) const;

  /// Why `v` cannot be walked/used shared (RejectReason::none = it can).
  RejectReason shareable_reason(VertexId v, const util::TimeWindow& w,
                                const Selection& sel) const;
  /// Why `v` cannot be claimed whole-and-exclusive (none = it can).
  RejectReason exclusive_reason(VertexId v, const util::TimeWindow& w,
                                const Selection& sel) const;
  /// Whether any active job's window overlaps `w`.
  bool any_job_during(const util::TimeWindow& w) const;
  /// The selection-only part of exclusive_reason: what a covered claim
  /// still checks, since no other job can hold a covered vertex.
  RejectReason selection_reason(VertexId v, const Selection& sel) const;

  /// Whether a claim on `v` is covered: walking up v's containment
  /// parents reaches a vertex for which `held(a)` holds (an exclusive
  /// whole-instance claim of the same job and window) other than the
  /// root, and every vertex on the way, v included, has exactly one
  /// incoming `contains` edge. Every walk into v then passes through that
  /// claim, whose schedule span books v too. The root is excluded because
  /// walks start there without marking it shared, so its exclusive claim
  /// does not see other jobs' use below it.
  template <class Held>
  bool covered_under(VertexId v, const Held& held) const {
    for (VertexId p = v; g_.vertex(p).contains_in == 1;) {
      const VertexId a = g_.vertex(p).containment_parent;
      if (a == graph::kInvalidVertex) return false;
      if (held(a)) return a != root_;
      p = a;
    }
    return false;
  }
  /// covered_under for a walk candidate `u` reached from `under`: covered
  /// only inside an exclusive claim of this selection (under_excl), and
  /// then by `under` itself.
  bool covered_in_walk(VertexId u, VertexId under, bool under_excl) const {
    return under_excl &&
           covered_under(u, [under](VertexId a) { return a == under; });
  }
  bool filter_admits(VertexId v, const util::TimeWindow& w,
                     const DenseDemand& demand) const;
  void mark_chain(VertexId candidate, VertexId stop_above,
                  const ParentMap& parent_of, Selection& sel) const;

  /// Aggregate per-type demand of one instance of req's subtree, written
  /// into `out` (cleared first). Types unknown to the graph are omitted:
  /// no filter tracks them and no vertex carries them, so their absence
  /// cannot change any admit/match outcome.
  void instance_demand(const jobspec::Resource& req, DenseDemand& out) const;

  // --- commit / time search -------------------------------------------------
  util::Expected<MatchResult> commit_selection(JobId job,
                                               const util::TimeWindow& w,
                                               TimePoint now, Selection& sel);
  /// Fold a consumed probe's stats delta into the lifetime counters.
  void fold_stats(const TraverserStats& d) noexcept;
  /// Turn a selection into committed spans appended to `rec` (schedule,
  /// shared-use and pruning-filter spans). Rolls `rec` back to its prior
  /// length on failure.
  util::Status apply_selection(JobRecord& rec, const util::TimeWindow& w,
                               const Selection& sel);
  /// Drop and re-derive every pruning-filter span from rec.claims.
  /// Transactional: on failure the prior filter spans are restored and an
  /// Errc::internal error is returned.
  util::Status rebuild_filter_spans(JobRecord& rec);
  /// Recompute rec.result.resources from rec.claims.
  void refresh_resources(JobRecord& rec) const;
  /// Release every span held by rec (best effort: keeps going past a
  /// failed removal, then reports it as Errc::internal).
  util::Status release_record(JobRecord& rec);
  /// Undo one committed claim: its schedule span, or its covered-claim
  /// count.
  util::Status unbook(const CommittedClaim& cc);
  /// Whether the vertices above a booked claim on `v` admit it over
  /// [start, start + d): every proper containment ancestor, the root
  /// included, is free whole, as the walk's pass-through and root checks
  /// demand (an exclusive ancestor claim of another job books v without a
  /// span on v), and, for a whole-instance claim, no shared walker
  /// overlaps v (on the root, which walks never mark: no job does).
  /// `checked` collects the ancestors already found free, so a batch of
  /// claims queries each ancestor once.
  bool ancestors_admit(VertexId v, bool whole, TimePoint start, Duration d,
                       std::unordered_set<VertexId>& checked) const;
  /// Earliest aggregate-feasible start per the root pruning filter (read
  /// path: leaves the planner untouched).
  util::Expected<TimePoint> next_candidate_time(
      TimePoint after, Duration duration,
      const std::vector<std::int64_t>& root_counts) const;
  /// The jobspec's aggregate demand laid out for the root pruning filter
  /// (empty when there is no filter or it tracks none of the types).
  std::vector<std::int64_t> root_filter_counts(
      const jobspec::Jobspec& js) const;

  // --- mutation bodies (public entry points wrap these with the audit
  // hook) --------------------------------------------------------------------
  util::Status cancel_impl(JobId job);
  util::Expected<MatchResult> restore_impl(const MatchResult& allocation);
  util::Expected<MatchResult> grow_impl(JobId job,
                                        const jobspec::Jobspec& extra,
                                        TimePoint now);
  util::Status shrink_impl(JobId job, VertexId vertex);
  util::Status extend_impl(JobId job, Duration extra);

  util::Status run_audit(const char* op) const;
  /// True when the pending injected fault (fail_next) matches `point`;
  /// consumes it.
  bool fault_fires(const char* point);
  /// add_span with an injection point for the fault hook.
  util::Expected<planner::SpanId> add_span_checked(planner::Planner& p,
                                                   const char* point,
                                                   TimePoint start, Duration d,
                                                   std::int64_t amount);
  util::Expected<planner::SpanId> add_multi_checked(
      planner::PlannerMulti& p, const char* point, TimePoint start, Duration d,
      const std::vector<std::int64_t>& counts);

  graph::ResourceGraph& g_;
  VertexId root_;
  const MatchPolicy& policy_;
  std::unordered_map<JobId, JobRecord> jobs_;
  std::map<TimePoint, int> release_times_;
  TraverserStats stats_;
  MatchScratch scratch_;  // serial path (match/grow) scratch
  TraversalMode mode_ = TraversalMode::scored;
  std::uint64_t mutation_epoch_ = 0;
  bool audit_enabled_ = false;
  bool introspect_ = false;
  RejectionProfile last_rejections_;  // of the last consumed probe
  std::string fault_point_;
};

}  // namespace fluxion::traverser
