// Federated hierarchical scheduling (paper §5.6): a multi-instance
// coordinator that partitions the machine into K child instances via
// coarse whole-node grants, routes submitted jobs asynchronously to
// per-child JobQueues, rebalances overloaded siblings by stealing queued
// jobs, and escalates jobs no child can satisfy to the root for
// whole-machine matching.
//
// Topology. `children` leaf partitions per level, `levels` deep:
// levels == 1 is root + K leaves; levels == 2 spawns K mid instances
// which each spawn K leaves (children^levels leaf queues), exercising
// the grant -> copied child-graph chain at every hop. Each leaf owns
// `nodes_per_leaf` whole nodes (auto: floor(total / leaves)); whatever
// the grants do not cover stays with the root, whose own queue serves
// escalated jobs. With children <= 1 the federation degenerates to the
// flat engine: the sole member *is* the root queue, no grant or child
// graph in the path — placements and eventlogs are byte-identical to
// a plain JobQueue by construction (pinned by
// tests/integration/test_federation_differential.cpp).
//
// Determinism contract. Routing, stealing and the lockstep clock are
// pure functions of (config, submission order, member state): fixed
// seeds give byte-identical per-member eventlogs on every run, for every
// routing policy. Wall-clock only ever feeds the obs routing-latency
// histogram, never a decision.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hier/instance.hpp"
#include "queue/job_queue.hpp"

namespace fluxion::hier {

using util::TimePoint;

/// How the router picks among the leaf members that can satisfy a job.
enum class RoutePolicy {
  round_robin,   // cycle over leaves, skipping non-satisfying ones
  least_loaded,  // least pending work (units x duration), lowest index ties
  locality,      // spec-signature hash pins a home leaf (recipe affinity)
};

const char* route_policy_name(RoutePolicy p) noexcept;
std::optional<RoutePolicy> parse_route_policy(std::string_view name) noexcept;

struct FederationConfig {
  /// Leaf partitions per level; <= 1 degenerates to the flat engine.
  std::size_t children = 1;
  /// Grant nesting depth: leaves = children^levels.
  std::size_t levels = 1;
  RoutePolicy route = RoutePolicy::round_robin;
  queue::QueuePolicy queue_policy = queue::QueuePolicy::conservative_backfill;
  /// Whole nodes granted to each leaf; 0 = floor(total / leaves). The
  /// remainder stays root-owned so escalated jobs have capacity to run
  /// on without waiting out the (effectively eternal) child grants.
  std::int64_t nodes_per_leaf = 0;
  /// Steal when the most-loaded leaf's backlog-per-node exceeds
  /// `steal_threshold` x the least-loaded leaf's; <= 0 disables the pass.
  double steal_threshold = 0.0;
  /// Max jobs moved per rebalance pass.
  std::size_t steal_batch = 4;
  // Queue features inherited by every member queue.
  bool eventlog = false;
  bool match_cache = true;
  /// Member queues match on one thread; create() refuses any other value.
  std::size_t match_threads = 1;
  traverser::TraversalMode traversal_mode = traverser::TraversalMode::scored;
  std::size_t reservation_depth = 0;
};

/// Federation-level job id: stable across steals (the member-local queue
/// id changes when a job moves; this one never does).
using FedJobId = std::int64_t;

/// One scheduling endpoint: a leaf instance's queue, or the root's
/// escalation queue (the last member when children > 1).
struct Member {
  std::string name;  // "child0".."childN-1", "root"; empty when flat
  Instance* instance = nullptr;
  std::unique_ptr<queue::JobQueue> queue;
  std::int64_t capacity_nodes = 0;
  bool is_root = false;
};

struct FederationStats {
  std::uint64_t routed = 0;     // jobs routed to a leaf
  std::uint64_t escalated = 0;  // jobs no leaf could satisfy -> root
  std::uint64_t stolen = 0;     // pending jobs moved by the steal pass
  std::uint64_t steal_passes = 0;  // passes that moved >= 1 job
};

class Federation {
 public:
  static util::Expected<std::unique_ptr<Federation>> create(
      const grug::Recipe& recipe, const FederationConfig& cfg,
      const core::Options& options = {});

  /// Async submit: the job lands in the router inbox and is assigned to
  /// a member on the next schedule() pass (pump). The returned id is
  /// federation-scoped and survives steals.
  FedJobId submit(jobspec::Jobspec spec, int priority = 0);

  /// One coordinator pass: drain the inbox (route/escalate), run the
  /// steal pass, then one scheduling pass per member.
  void schedule();

  /// Earliest pending event across every member (kMaxTime when idle);
  /// now() when unrouted submissions are still in the inbox.
  TimePoint next_event() const;

  /// Advance every member clock in lockstep, scheduling after each fired
  /// event — for a sole member this reproduces the flat engine's
  /// advance/schedule interleaving exactly.
  util::Status advance_to(TimePoint t);

  /// Drive until every job everywhere is terminal. Jobs stuck pending on
  /// an idle federation are rejected by their member queue
  /// ("never_satisfiable"), exactly as a flat queue would.
  util::Expected<TimePoint> run_to_completion();

  TimePoint now() const noexcept { return now_; }

  // --- direct (unqueued) matching, for the resource-query CLI -------------
  /// Route one spec through the federation and match immediately on the
  /// chosen member's engine (escalating to the root on leaf failure).
  /// last_member() names the member that produced the final verdict;
  /// last_args() carries that member's traverser attribution (prefixed
  /// with a "member" entry) for the explain surface.
  util::Expected<traverser::MatchResult> match_allocate(
      const jobspec::Jobspec& js);
  const std::string& last_member() const noexcept { return last_member_; }
  const std::vector<std::pair<std::string, std::string>>& last_args()
      const noexcept {
    return last_args_;
  }

  // --- lookup / introspection ----------------------------------------------
  struct JobRef {
    std::size_t member = 0;
    queue::JobId local = -1;
  };
  /// nullptr while the job is still in the inbox or the id is unknown.
  const JobRef* find(FedJobId id) const;
  const queue::Job* find_job(FedJobId id) const;
  /// Member-attributed account: which member owns the job (or that it is
  /// still unrouted), plus that member queue's full explain rendering.
  std::string explain(FedJobId id) const;

  std::size_t member_count() const noexcept { return members_.size(); }
  std::size_t leaf_count() const noexcept { return leaves_; }
  Member& member(std::size_t i) noexcept { return *members_[i]; }
  const Member& member(std::size_t i) const noexcept { return *members_[i]; }
  Instance& root() noexcept { return *root_; }
  const Instance& root() const noexcept { return *root_; }
  const FederationConfig& config() const noexcept { return cfg_; }
  const FederationStats& stats() const noexcept { return stats_; }
  /// Submission order, federation ids.
  const std::vector<FedJobId>& all_jobs() const noexcept { return order_; }
  std::size_t inbox_size() const noexcept { return inbox_.size(); }

  /// Every member's eventlog as one JSONL stream, member blocks in
  /// member order, each line tagged with a "member" field. Deterministic
  /// for fixed inputs (the determinism artifact the differential tests
  /// compare).
  std::string eventlog_jsonl() const;

  /// Drop every member's cached satisfiability verdict. Call after a
  /// dynamic-resource mutation on any member graph (the per-queue match
  /// caches pick the mutation up via their traverser epoch; this cache
  /// cannot).
  void invalidate_sat_cache();

  /// Binary engine snapshot of member `i` (its graph, committed claims
  /// and queue) — loadable as a warm engine or a read Replica
  /// (src/snapshot). Members snapshot per leaf; there is no whole-
  /// federation image (the router inbox and steal state are transient).
  std::string member_snapshot(std::size_t i);

 private:
  Federation() = default;

  /// True when member `m` could ever satisfy `js` on an idle system;
  /// memoised per (member, signature). The sole flat member short-cuts
  /// to true so the degenerate path issues no extra traverser ops.
  bool can_satisfy(std::size_t m, const jobspec::Jobspec& js,
                   const std::string& sig);
  /// Leaf index for `js` under the configured policy, or nullopt when no
  /// leaf can satisfy it (escalate).
  std::optional<std::size_t> pick_leaf(const jobspec::Jobspec& js,
                                       const std::string& sig);
  void pump_routing();
  void steal_pass();
  void update_depth_gauges();

  FederationConfig cfg_;
  std::unique_ptr<Instance> root_;
  std::vector<std::unique_ptr<Member>> members_;  // leaves..., then root
  std::size_t leaves_ = 0;
  TimePoint now_ = 0;

  struct InboxEntry {
    FedJobId id = -1;
    jobspec::Jobspec spec;
    int priority = 0;
  };
  std::deque<InboxEntry> inbox_;
  FedJobId next_fed_id_ = 1;
  std::vector<FedJobId> order_;
  std::unordered_map<FedJobId, JobRef> refs_;
  /// Per-member reverse map so steals can re-point the federation id.
  std::vector<std::unordered_map<queue::JobId, FedJobId>> local_to_fed_;
  /// Per-member satisfiability verdicts, keyed by spec signature.
  std::vector<std::unordered_map<std::string, bool>> sat_cache_;
  std::size_t rr_cursor_ = 0;
  FederationStats stats_;
  std::string last_member_;
  std::vector<std::pair<std::string, std::string>> last_args_;
  /// The stats_ tallies, reported by obs (unlabelled: one federation).
  obs::Source obs_source_{nullptr,
                          {{"hier.routed", &stats_.routed},
                           {"hier.escalated", &stats_.escalated},
                           {"hier.stolen", &stats_.stolen},
                           {"hier.steal_passes", &stats_.steal_passes}}};
};

}  // namespace fluxion::hier
