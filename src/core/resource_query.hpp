// ResourceQuery: the top-level Fluxion engine (paper Figure 1c, §6.1).
//
// Mirrors the paper's resource-query utility: it owns the resource graph
// store (populated from a GRUG recipe), a match policy, and the traverser,
// and exposes the match operations the underlying resource manager would
// drive. This is deliverable (a)'s front door; see examples/ for usage.
//
//   auto rq = fluxion::core::ResourceQuery::create(recipe, {.policy = "low-id"});
//   auto js = fluxion::jobspec::Jobspec::from_yaml(text);
//   auto alloc = rq->match_allocate(*js);
#pragma once

#include <memory>
#include <string>

#include "graph/resource_graph.hpp"
#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "policy/policies.hpp"
#include "traverser/traverser.hpp"
#include "util/expected.hpp"

namespace fluxion::core {

using traverser::JobId;
using traverser::MatchResult;
using util::Duration;
using util::TimePoint;

struct Options {
  std::string policy = "low-id";
  TimePoint plan_start = 0;
  /// Planning horizon for every vertex planner; defaults to ~68 years of
  /// seconds, mirroring flux-sched's effectively-unbounded horizon.
  Duration horizon = std::int64_t{1} << 31;
};

class ResourceQuery {
 public:
  /// Build the graph store from a recipe and wire up policy + traverser.
  static util::Expected<std::unique_ptr<ResourceQuery>> create(
      const grug::Recipe& recipe, const Options& options = {});

  /// As create(), but from GRUG recipe text.
  static util::Expected<std::unique_ptr<ResourceQuery>> create_from_text(
      std::string_view grug_text, const Options& options = {});

  /// As create_from_graph(), over the graph read from a JSON Graph Format
  /// document (writers::read_jgf) with the options' planning horizon.
  static util::Expected<std::unique_ptr<ResourceQuery>> create_from_jgf(
      std::string_view jgf_text, const Options& options = {},
      const std::vector<std::string>& filter_types = {},
      const std::vector<std::string>& filter_at = {});

  /// Wrap a built graph rooted at `root` (e.g. a parent instance's grant,
  /// paper §5.6) with the options' policy and a traverser. Pruning
  /// filters go on every vertex of the `filter_at` types, over the types
  /// in `filter_types`.
  /// `filter_types` and `filter_at` must both be empty (no pruning) or
  /// both be non-empty, and every `filter_at` type must exist in the
  /// graph; anything else fails with invalid_argument rather than
  /// silently disabling pruning.
  static util::Expected<std::unique_ptr<ResourceQuery>> create_from_graph(
      std::unique_ptr<graph::ResourceGraph> graph, graph::VertexId root,
      const Options& options = {},
      const std::vector<std::string>& filter_types = {},
      const std::vector<std::string>& filter_at = {});

  /// Wrap pre-built engine components (e.g. a snapshot::RestoredEngine)
  /// in the front door. The traverser must already reference `graph` and
  /// `policy`; `next_job_id` seeds the id counter past any restored jobs.
  static std::unique_ptr<ResourceQuery> adopt(
      std::unique_ptr<graph::ResourceGraph> graph,
      std::unique_ptr<traverser::MatchPolicy> policy,
      std::unique_ptr<traverser::Traverser> traverser, graph::VertexId root,
      JobId next_job_id);

  // --- match operations (paper Figure 1c step 3-7) -------------------------
  /// Allocate at `now` or fail with resource_busy.
  util::Expected<MatchResult> match_allocate(const jobspec::Jobspec& js,
                                             TimePoint now = 0);

  /// Allocate at the earliest feasible time (possibly a future
  /// reservation) — the primitive behind conservative backfilling.
  util::Expected<MatchResult> match_allocate_orelse_reserve(
      const jobspec::Jobspec& js, TimePoint now = 0);

  /// Could the request ever be satisfied on this (idle) system?
  util::Expected<MatchResult> satisfiability(const jobspec::Jobspec& js);

  /// Variants taking jobspec YAML directly.
  util::Expected<MatchResult> match_allocate_yaml(std::string_view yaml,
                                                  TimePoint now = 0);

  /// Release a job's resources.
  util::Status cancel(JobId job);

  /// Render an allocation as "path[units]" lines (the paper's selected
  /// resource set, step 7).
  std::string render(const MatchResult& result) const;

  /// Zero every runtime counter: the traverser's lifetime stats and the
  /// process-wide obs::monitor() catalogue (the `clear-stats` command).
  void clear_stats();

  // --- access ---------------------------------------------------------------
  graph::ResourceGraph& graph() noexcept { return *graph_; }
  const graph::ResourceGraph& graph() const noexcept { return *graph_; }
  traverser::Traverser& traverser() noexcept { return *traverser_; }
  const traverser::MatchPolicy& policy() const noexcept { return *policy_; }
  graph::VertexId root() const noexcept { return root_; }
  JobId next_job_id() noexcept { return next_job_id_++; }
  /// The id the next match will run under, without consuming it (the CLI
  /// keys its per-job explain records on this).
  JobId peek_job_id() const noexcept { return next_job_id_; }

 private:
  ResourceQuery() = default;

  std::unique_ptr<graph::ResourceGraph> graph_;
  std::unique_ptr<traverser::MatchPolicy> policy_;
  std::unique_ptr<traverser::Traverser> traverser_;
  graph::VertexId root_ = graph::kInvalidVertex;
  JobId next_job_id_ = 1;
};

}  // namespace fluxion::core
