// Fully hierarchical scheduling (paper §5.6).
//
// Under the Flux model any instance can spawn child instances, granting
// each a subset of its jobs and resources; the parent-child relationship
// extends to arbitrary depth and width. An Instance couples:
//
//   * a complete Fluxion engine (core::ResourceQuery) over its own
//     resource graph, and
//   * the *grant* that carved those resources out of the parent — a
//     long-lived allocation in the parent's graph, copied vertex by
//     vertex into the child's own graph (grant_graph).
//
// Child scheduling is invisible to the parent (separation of concerns
// across levels); shutting a child down releases its grant.
#pragma once

#include <memory>
#include <vector>

#include "core/resource_query.hpp"
#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "util/expected.hpp"

namespace fluxion::hier {

/// Copy a grant (a MatchResult in `parent`) into a fresh graph over the
/// given planning window: a synthetic `cluster0` root containing every
/// selected vertex, with the full subtree of exclusive whole-vertex
/// claims, and quantity claims resized to the granted units. Vertices
/// keep type, basename, name, properties and status and are created in
/// parent uniq_id order, so policy orderings carry over.
util::Expected<graph::RootedGraph> grant_graph(
    const graph::ResourceGraph& parent, const traverser::MatchResult& grant,
    util::TimePoint plan_start, util::Duration horizon);

class Instance {
 public:
  /// The root of an instance hierarchy, owning the physical system.
  static util::Expected<std::unique_ptr<Instance>> create_root(
      const grug::Recipe& recipe, const core::Options& options = {});

  /// Allocate `grant` in this instance and spawn a child instance over
  /// exactly those resources. The child inherits this instance's policy
  /// unless `child_options` overrides it.
  util::Expected<Instance*> spawn_child(const jobspec::Jobspec& grant,
                                        const core::Options& child_options);

  /// Recursively shut down a child and release its grant back to this
  /// instance. The pointer is invalidated.
  util::Status shutdown_child(Instance* child);

  core::ResourceQuery& engine() noexcept { return *engine_; }
  const core::ResourceQuery& engine() const noexcept { return *engine_; }
  Instance* parent() const noexcept { return parent_; }
  const std::vector<std::unique_ptr<Instance>>& children() const noexcept {
    return children_;
  }
  /// Distance from the hierarchy root; cached at spawn time.
  std::size_t depth() const noexcept { return depth_; }
  /// Instances in this subtree, including this one.
  std::size_t tree_size() const noexcept;

 private:
  Instance() = default;

  std::unique_ptr<core::ResourceQuery> engine_;
  Instance* parent_ = nullptr;
  traverser::JobId grant_job_ = -1;  // allocation id in the parent
  std::size_t depth_ = 0;            // set once at spawn; root stays 0
  std::vector<std::unique_ptr<Instance>> children_;
};

}  // namespace fluxion::hier
