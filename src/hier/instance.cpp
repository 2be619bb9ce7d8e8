#include "hier/instance.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace fluxion::hier {

using util::Errc;

util::Expected<graph::RootedGraph> grant_graph(
    const graph::ResourceGraph& parent, const traverser::MatchResult& grant,
    util::TimePoint plan_start, util::Duration horizon) {
  // Skip vertices whose selected ancestor already brings their subtree.
  std::unordered_set<graph::VertexId> whole;
  for (const auto& ru : grant.resources) {
    if (ru.exclusive && ru.units == parent.vertex(ru.vertex).size) {
      whole.insert(ru.vertex);
    }
  }
  auto covered = [&](graph::VertexId v) {
    for (graph::VertexId a = parent.vertex(v).containment_parent;
         a != graph::kInvalidVertex; a = parent.vertex(a).containment_parent) {
      if (whole.contains(a)) return true;
    }
    return false;
  };

  // Plan in parent ids: (vertex, units) copies, and containment edges in
  // adding order, kInvalidVertex standing for the synthetic root. A whole
  // claim brings its subtree in pre-order, then the edge from the root; a
  // quantity claim is a pool of exactly the granted units.
  std::vector<std::pair<graph::VertexId, std::int64_t>> copies;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges, stack;
  for (const auto& ru : grant.resources) {
    if (covered(ru.vertex)) continue;
    stack.assign(1, {graph::kInvalidVertex, ru.vertex});
    while (!stack.empty()) {
      const auto [above, v] = stack.back();
      stack.pop_back();
      if (above != graph::kInvalidVertex) edges.emplace_back(above, v);
      copies.emplace_back(v,
                          v == ru.vertex ? ru.units : parent.vertex(v).size);
      if (!whole.contains(ru.vertex)) continue;
      const auto kids = parent.containment_children(v);
      for (auto c = kids.rbegin(); c != kids.rend(); ++c) {
        stack.emplace_back(v, *c);
      }
    }
    edges.emplace_back(graph::kInvalidVertex, ru.vertex);
  }
  // Parent uniq_id order keeps policy orderings in the child.
  std::ranges::stable_sort(copies, {}, [&](const auto& c) {
    return parent.vertex(c.first).uniq_id;
  });

  graph::RootedGraph out{
      std::make_unique<graph::ResourceGraph>(plan_start, horizon)};
  graph::ResourceGraph& g = *out.graph;
  out.root = g.add_vertex_named("cluster", "cluster", "cluster0", 1);
  std::unordered_map<graph::VertexId, graph::VertexId> child_of{
      {graph::kInvalidVertex, out.root}};
  for (const auto& [from, units] : copies) {
    const graph::Vertex& px = parent.vertex(from);
    const auto v = g.add_vertex_named(parent.type_name(px.type), px.basename,
                                      px.name, units);
    g.vertex(v).properties = px.properties;
    // Before any edge exists: no ancestor filter or non_up_below count to
    // reconcile (add_containment folds the status in).
    if (px.status != graph::ResourceStatus::up) {
      if (auto st = g.set_status(v, px.status); !st) return st.error();
    }
    child_of[from] = v;
  }
  for (const auto& [above, v] : edges) {
    if (auto st = g.add_containment(child_of[above], child_of[v]); !st) {
      return st.error();
    }
  }
  return out;
}

util::Expected<std::unique_ptr<Instance>> Instance::create_root(
    const grug::Recipe& recipe, const core::Options& options) {
  auto engine = core::ResourceQuery::create(recipe, options);
  if (!engine) return engine.error();
  auto inst = std::unique_ptr<Instance>(new Instance);
  inst->engine_ = std::move(*engine);
  return inst;
}

util::Expected<Instance*> Instance::spawn_child(
    const jobspec::Jobspec& grant, const core::Options& child_options) {
  auto alloc = engine_->match_allocate(grant);
  if (!alloc) return alloc.error();
  auto copy = grant_graph(engine_->graph(), *alloc, child_options.plan_start,
                          child_options.horizon);
  // Children prune on the same types a quartz-style parent would.
  auto child_engine = copy ? core::ResourceQuery::create_from_graph(
                                 std::move(copy->graph), copy->root,
                                 child_options, {"node", "core"}, {"cluster"})
                           : copy.error();
  if (!child_engine) {
    (void)engine_->cancel(alloc->job);
    return child_engine.error();
  }
  auto child = std::unique_ptr<Instance>(new Instance);
  child->engine_ = std::move(*child_engine);
  child->parent_ = this;
  child->grant_job_ = alloc->job;
  child->depth_ = depth_ + 1;
  children_.push_back(std::move(child));
  return children_.back().get();
}

util::Status Instance::shutdown_child(Instance* child) {
  auto it = std::find_if(children_.begin(), children_.end(),
                         [&](const auto& c) { return c.get() == child; });
  if (it == children_.end()) {
    return util::Error{Errc::not_found, "shutdown_child: not my child"};
  }
  // Depth-first: grandchildren release their grants into the child, which
  // is about to vanish anyway, but keeps every engine consistent.
  while (!(*it)->children_.empty()) {
    if (auto st = (*it)->shutdown_child((*it)->children_.back().get());
        !st) {
      return st;
    }
  }
  if (auto st = engine_->cancel((*it)->grant_job_); !st) return st;
  children_.erase(it);
  return util::Status::ok();
}

std::size_t Instance::tree_size() const noexcept {
  std::size_t n = 1;
  for (const auto& c : children_) n += c->tree_size();
  return n;
}

}  // namespace fluxion::hier
