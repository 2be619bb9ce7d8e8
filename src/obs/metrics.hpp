// Observability: process-wide counters, gauges and latency histograms for
// the scheduler hot paths (paper §6's invisible quantities made visible —
// planner tree ops, pruning-filter skip rates, SDFU update costs, match
// latency). Mirrors the role of flux-sched's `match-stats` surface.
//
// Design constraints:
//   * Instrumentation must be cheap enough to leave compiled in: every
//     update is a relaxed atomic increment behind the `enabled()` flag
//     (one predictable branch on an inline global when disabled).
//   * Counters and gauges are relaxed atomics: the engine is
//     single-threaded, but read replicas (snapshot::Replica, one per
//     thread) share this monitor and may bump the same counter at once.
//     Relaxed ordering is enough — the values are monotone tallies, never
//     used for synchronisation.
//   * One counter per fact: a tally its owner keeps (QueueStats,
//     FederationStats) is read through a Source, never copied here.
//   * Every metric is one row of the catalogue table in metrics.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace fluxion::obs {

/// Monotonic event count; reset only via clear-stats. Increments may
/// come from replicas on different threads, hence the relaxed atomic.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value plus the high-water mark since the last reset.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    std::int64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Instrumented engine entry points: the four traverser match operations
/// plus cancel (the other half of every job's lifecycle).
enum class Op {
  allocate = 0,
  allocate_orelse_reserve,
  satisfiability,
  allocate_with_satisfiability,
  cancel,
};
inline constexpr std::size_t kOpCount = 5;

/// Stable lowercase name ("allocate", ..., "cancel").
const char* op_name(Op op) noexcept;

/// Per-operation call counts and wall-clock latency distribution.
struct OpMetrics {
  Counter calls;
  Counter failures;
  util::Histogram latency_us{0.0, 100000.0, 50};  // 0..100 ms, 2 ms bins
};

/// An object's own monotone tallies (a JobQueue's QueueStats, a
/// Federation's FederationStats), registered under their catalogue keys
/// ("queue.submitted") and an instance label (nullptr: unlabelled), which
/// must outlive the registration. The exporters report what the tallies
/// counted while obs was enabled since the last reset(); the four rules
/// that keep this exact are in docs/observability.md. Registration takes
/// a mutex; exports must not run while another thread bumps a tally.
class Source {
 public:
  using Tally = std::pair<const char*, const std::uint64_t*>;
  Source(const std::string* label, std::initializer_list<Tally> tallies);
  ~Source();
  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;
  void rebaseline();  // count from the current values on

 private:
  friend struct PerfMonitor;
  friend void set_enabled(bool on);
  struct Slot {
    std::size_t row;  // catalogue row
    const std::uint64_t* value;
    std::uint64_t base;
  };
  std::string label() const { return label_ ? *label_ : std::string(); }
  /// Retire the counts since the baselines when `fold`, then rebaseline.
  void settle(bool fold);

  const std::string* label_;
  std::vector<Slot> slots_;
};

/// The metric catalogue (see docs/observability.md). Grouped by layer.
struct PerfMonitor {
  // --- traverser ----------------------------------------------------------
  // All but trav_rollbacks mirror TraverserStats: every probe and grow
  // adds its walk's counts here once, at its end, committed or not.
  Counter trav_visits;            // vertices entered by the candidate walk
  Counter trav_pruned;            // subtrees skipped by pruning filters
  Counter trav_postorder_rejects; // candidates dropped after descending
  Counter trav_rollbacks;         // selection rollbacks (any cause)
  Counter trav_match_attempts;    // full selection attempts
  Counter trav_status_pruned;     // subtrees skipped for non-up status
  Counter trav_first_match_stops; // first-match walks unwound early
  OpMetrics ops[kOpCount];
  OpMetrics& op(Op o) noexcept { return ops[static_cast<std::size_t>(o)]; }
  const OpMetrics& op(Op o) const noexcept {
    return ops[static_cast<std::size_t>(o)];
  }

  // --- planner (one time tree, one pool) ----------------------------------
  Counter planner_point_inserts;  // scheduled points created
  Counter planner_point_removes;  // scheduled points collected
  Counter planner_rekeys;         // in_use rewrites by span add/remove
  Counter planner_span_adds;
  Counter planner_span_removes;
  Counter planner_avail_queries;  // avail_at/avail_during/avail_resources_during
  Counter planner_avail_time_first;
  Counter planner_atf_probes;     // earliest-fit candidates tested

  // --- planner_multi (aggregate filters, root PlannerMultiAvailTimeFirst) --
  Counter multi_span_adds;
  Counter multi_span_removes;
  Counter multi_avail_time_first;
  Counter multi_atf_rounds;       // candidate rounds in the cross-type loop

  // --- SDFU (Scheduler-Driven Filter Updates, paper §3.4) ------------------
  Counter sdfu_commits;           // commits that touched pruning filters
  Counter sdfu_spans;             // filter spans written in total
  util::Histogram sdfu_spans_per_commit{0.0, 64.0, 32};

  // --- queue / replay (simulated clock) ------------------------------------
  // Queue tallies (submitted, ...) are each JobQueue's QueueStats.
  Gauge queue_depth;              // pending jobs after the last queue event
  util::Histogram queue_depth_samples{0.0, 4096.0, 64};
  util::Histogram job_wait{0.0, 1048576.0, 64};        // simulated seconds
  util::Histogram job_turnaround{0.0, 1048576.0, 64};  // simulated seconds
  // Wait-time decomposition of job_wait by cause (queue::WaitBreakdown,
  // added per job at completion): blocked on resources, parked behind its
  // own reservation, held, gated on dependencies.
  util::Histogram wait_resources{0.0, 1048576.0, 64};
  util::Histogram wait_reservation{0.0, 1048576.0, 64};
  util::Histogram wait_held{0.0, 1048576.0, 64};
  util::Histogram wait_dependency{0.0, 1048576.0, 64};

  // --- dynamic resources (status flips, eviction, grow/shrink) -------------
  Counter dyn_status_flips;       // set_status calls that changed state
  Counter dyn_evicted_requeued;   // running jobs cancelled and requeued
  Counter dyn_evicted_killed;     // running jobs cancelled for good
  Counter dyn_replanned;          // reservations pushed back to pending
  Counter dyn_grow_calls;
  Counter dyn_shrink_calls;
  Counter dyn_vertices_added;     // vertices attached by grow
  Counter dyn_vertices_removed;   // vertices detached by shrink
  util::Histogram dyn_grow_latency_us{0.0, 100000.0, 50};
  util::Histogram dyn_shrink_latency_us{0.0, 100000.0, 50};

  // --- hierarchy / federation (paper §5.6) ----------------------------------
  // routed, escalated, stolen, steal_passes are FederationStats.
  util::Histogram hier_route_latency_us{0.0, 100000.0, 50};
  /// Pending-queue depth per federation member (index = member ordinal;
  /// the root escalation queue rides at index member_count - 1 when
  /// present). A deque because Gauge's atomics are not movable; grown
  /// serially via ensure_hier_members so entries never relocate.
  std::deque<Gauge> hier_member_depth;
  /// Grow the per-member depth gauge set to at least `n` entries. Must be
  /// called from the serial path (federation construction).
  void ensure_hier_members(std::size_t n) {
    while (hier_member_depth.size() < n) hier_member_depth.emplace_back();
  }

  // --- snapshot / replicas (src/snapshot) -----------------------------------
  Counter snap_saves;             // engine snapshots serialised
  Counter snap_loads;             // engines rebuilt from snapshot bytes
  Counter snap_bytes;             // total snapshot bytes produced
  util::Histogram snap_save_us{0.0, 100000.0, 50};
  util::Histogram snap_load_us{0.0, 100000.0, 50};
  /// Guards the two snap_* histograms: replicas on different threads
  /// load snapshots at the same time, and histograms are not atomic.
  std::mutex snap_mu;
  Counter replica_queries;        // queries served by read replicas
  Counter replica_stale;          // staleness checks finding the writer ahead

  /// Zero every counter, gauge and histogram; rebaseline every source.
  void reset();

  /// One counter by catalogue key ("queue.events_fired"): its process-wide
  /// total, as json() reports it. 0 for an unknown key.
  std::uint64_t value(std::string_view key) const;

  /// The whole catalogue as one JSON document (counters as integers,
  /// histograms via util::Histogram::json).
  std::string json() const;

  /// The whole catalogue in Prometheus text exposition format (0.0.4):
  /// counters as `fluxion_<name>_total`, gauges as `fluxion_<name>` plus
  /// `_max`, histograms as cumulative `_bucket{le=...}` / `_sum` /
  /// `_count` series. Scrape-ready for node_exporter's textfile collector
  /// (`fluxion-sim --metrics-prom`, `reapi_metrics_prometheus`).
  std::string prometheus() const;

  /// Human-readable summary; `verbose` appends ASCII histograms — what
  /// `resource-query`'s `stats` / `stats -v` print.
  std::string render(bool verbose) const;

 private:
  friend class Source;
  friend void set_enabled(bool on);
  /// Catalogue row `row`'s counts per instance label, and their total.
  std::map<std::string, std::uint64_t> sourced(std::size_t row) const;
  std::uint64_t count(std::size_t row) const;
  mutable std::mutex sources_mu_;
  std::vector<Source*> sources_;
  /// (instance label, catalogue row) -> counts retired since reset().
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> retired_;
};

/// Process-wide switch; instrumentation sites read it inline.
inline bool g_metrics_enabled = false;

inline bool enabled() noexcept { return g_metrics_enabled; }
void set_enabled(bool on);  // a transition retires or rebaselines sources

/// The process-wide monitor.
inline PerfMonitor& monitor() noexcept {
  static PerfMonitor m;
  return m;
}

}  // namespace fluxion::obs
