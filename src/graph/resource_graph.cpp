#include "graph/resource_graph.hpp"

#include <algorithm>
#include <cassert>

#include "util/check.hpp"

namespace fluxion::graph {

using util::Errc;

const char* status_name(ResourceStatus s) noexcept {
  switch (s) {
    case ResourceStatus::up:
      return "up";
    case ResourceStatus::down:
      return "down";
    case ResourceStatus::drained:
      return "drained";
  }
  return "unknown";
}

std::optional<ResourceStatus> parse_status(std::string_view name) noexcept {
  if (name == "up") return ResourceStatus::up;
  if (name == "down") return ResourceStatus::down;
  if (name == "drained") return ResourceStatus::drained;
  return std::nullopt;
}

ResourceGraph::ResourceGraph(TimePoint plan_start, Duration horizon)
    : plan_start_(plan_start), horizon_(horizon) {
  containment_ = subsystems_.intern("containment");
  contains_ = relations_.intern("contains");
  in_ = relations_.intern("in");
  subsystem_filter_.push_back(containment_);
}

VertexId ResourceGraph::add_vertex(std::string_view type,
                                   std::string_view basename,
                                   std::int64_t id_within_parent,
                                   std::int64_t size) {
  return add_vertex_named(
      type, basename,
      std::string(basename) + std::to_string(id_within_parent), size);
}

VertexId ResourceGraph::add_vertex_named(std::string_view type,
                                         std::string_view basename,
                                         std::string_view name,
                                         std::int64_t size) {
  assert(size >= 0);
  const VertexId id = static_cast<VertexId>(vertices_.size());
  Vertex v;
  v.id = id;
  v.type = types_.intern(type);
  v.basename = std::string(basename);
  v.name = std::string(name);
  v.size = size;
  v.uniq_id = next_uniq_id_++;
  v.path = "/" + v.name;
  v.schedule = std::make_unique<planner::Planner>(plan_start_, horizon_, size,
                                                  type);
  v.x_checker = std::make_unique<planner::Planner>(plan_start_, horizon_,
                                                   kSharedUseMax, "shared-use");
  vertices_.push_back(std::move(v));
  out_.emplace_back();
  if (by_type_.size() <= vertices_.back().type) {
    by_type_.resize(vertices_.back().type + 1);
  }
  by_type_[vertices_.back().type].push_back(id);
  by_path_[vertices_.back().path] = id;
  ++live_count_;
  ++status_counts_[static_cast<std::size_t>(ResourceStatus::up)];
  return id;
}

util::Status ResourceGraph::add_edge(VertexId src, VertexId dst,
                                     InternId subsystem, InternId relation) {
  if (src >= vertices_.size() || dst >= vertices_.size()) {
    return util::Error{Errc::not_found, "add_edge: unknown vertex"};
  }
  if (!vertices_[src].alive || !vertices_[dst].alive) {
    return util::Error{Errc::invalid_argument, "add_edge: dead vertex"};
  }
  out_[src].push_back(Edge{dst, subsystem, relation});
  ++edge_count_;
  if (relation == contains_) add_contains_in(dst);
  return util::Status::ok();
}

namespace {
void repath(ResourceGraph& g, VertexId v,
            std::unordered_map<std::string, VertexId>& by_path,
            const std::string& parent_path) {
  Vertex& vx = g.vertex(v);
  // Only drop the registration if it is really ours: a sibling created
  // later may have transiently reused the same pre-containment path.
  if (auto it = by_path.find(vx.path);
      it != by_path.end() && it->second == v) {
    by_path.erase(it);
  }
  vx.path = parent_path + "/" + vx.name;
  by_path[vx.path] = v;
  for (VertexId c : g.containment_children(v)) {
    repath(g, c, by_path, vx.path);
  }
}
}  // namespace

util::Status ResourceGraph::add_containment(VertexId parent, VertexId child) {
  if (parent >= vertices_.size() || child >= vertices_.size()) {
    return util::Error{Errc::not_found, "add_containment: unknown vertex"};
  }
  if (vertices_[child].containment_parent != kInvalidVertex) {
    return util::Error{Errc::exists, "add_containment: child already placed"};
  }
  // The parent chain of a forest ends, so this walk is O(depth); an edge
  // closing a cycle would send repath and bump_ancestor_non_up round it
  // forever.
  std::size_t depth = 0;
  for (VertexId a = parent; a != kInvalidVertex;
       a = vertices_[a].containment_parent, ++depth) {
    if (a == child) {
      return util::Error{Errc::invalid_argument,
                         "add_containment: edge would form a containment "
                         "cycle"};
    }
  }
  // `depth` counts parent itself, so the child lands at level `depth` and
  // the deepest vertex below it at `depth` + the height of its subtree.
  std::size_t height = 0;
  std::vector<std::pair<VertexId, std::size_t>> stack{{child, 0}};
  while (!stack.empty()) {
    const auto [u, level] = stack.back();
    stack.pop_back();
    height = std::max(height, level);
    for (const Edge& e : out_[u]) {
      if (e.relation == contains_ && e.subsystem == containment_ &&
          vertices_[e.dst].alive) {
        stack.emplace_back(e.dst, level + 1);
      }
    }
  }
  if (depth + height > kMaxContainmentDepth) {
    return util::Error{Errc::invalid_argument,
                       "add_containment: edge would nest containment deeper "
                       "than " + std::to_string(kMaxContainmentDepth) +
                           " levels"};
  }
  if (auto st = add_edge(parent, child, containment_, contains_); !st) {
    return st;
  }
  if (auto st = add_edge(child, parent, containment_, in_); !st) return st;
  vertices_[child].containment_parent = parent;
  repath(*this, child, by_path_, vertices_[parent].path);
  const std::int32_t child_non_up =
      vertices_[child].non_up_below +
      (vertices_[child].status != ResourceStatus::up ? 1 : 0);
  bump_ancestor_non_up(parent, child_non_up);
  return util::Status::ok();
}

util::Status ResourceGraph::install_filter(VertexId v,
                                           const std::vector<InternId>&
                                               types) {
  if (v >= vertices_.size()) {
    return util::Error{Errc::not_found, "install_filter: unknown vertex"};
  }
  if (vertices_[v].filter != nullptr) {
    return util::Error{Errc::exists, "install_filter: filter already set"};
  }
  auto counts = counted_subtree_counts(v);
  auto filter = std::make_unique<planner::PlannerMulti>(plan_start_, horizon_);
  for (InternId t : types) {
    const auto it = counts.find(t);
    const std::int64_t total = it == counts.end() ? 0 : it->second;
    if (auto r = filter->add_resource(types_.name(t), total, t); !r) {
      return r.error();
    }
  }
  vertices_[v].filter = std::move(filter);
  return util::Status::ok();
}

std::vector<VertexId> ResourceGraph::children(VertexId v, InternId subsystem,
                                              InternId relation) const {
  std::vector<VertexId> out;
  for (const Edge& e : out_[v]) {
    if (e.subsystem == subsystem && e.relation == relation &&
        vertices_[e.dst].alive) {
      out.push_back(e.dst);
    }
  }
  return out;
}

std::vector<VertexId> ResourceGraph::containment_children(VertexId v) const {
  return children(v, containment_, contains_);
}

std::vector<VertexId> ResourceGraph::vertices_of_type(InternId type) const {
  std::vector<VertexId> out;
  if (type >= by_type_.size()) return out;
  for (VertexId v : by_type_[type]) {
    if (vertices_[v].alive) out.push_back(v);
  }
  return out;
}

std::optional<VertexId> ResourceGraph::find_by_path(
    std::string_view path) const {
  auto it = by_path_.find(std::string(path));
  if (it == by_path_.end() || !vertices_[it->second].alive) {
    return std::nullopt;
  }
  return it->second;
}

void ResourceGraph::collect_subtree(VertexId v,
                                    std::vector<VertexId>& out) const {
  out.push_back(v);
  for (VertexId c : containment_children(v)) collect_subtree(c, out);
}

std::map<InternId, std::int64_t> ResourceGraph::subtree_counts(
    VertexId v) const {
  std::map<InternId, std::int64_t> counts;
  std::vector<VertexId> subtree;
  collect_subtree(v, subtree);
  for (VertexId u : subtree) counts[vertices_[u].type] += vertices_[u].size;
  return counts;
}

bool ResourceGraph::in_subtree(VertexId v, VertexId top) const {
  for (VertexId a = v; a != kInvalidVertex;
       a = vertices_[a].containment_parent) {
    if (a == top) return true;
  }
  return false;
}

util::Status ResourceGraph::resize_ancestor_filters(
    VertexId from, const std::map<InternId, std::int64_t>& delta, bool grow) {
  // All-or-nothing: remember every applied resize so a mid-walk failure
  // (an oversubscribed shrink) leaves the filters exactly as they were.
  std::vector<std::pair<planner::Planner*, std::int64_t>> applied;
  for (VertexId a = from; a != kInvalidVertex;
       a = vertices_[a].containment_parent) {
    planner::PlannerMulti* filter = vertices_[a].filter.get();
    if (filter == nullptr) continue;
    for (const auto& [type, count] : delta) {
      auto idx = filter->index_of_id(type);
      if (!idx) continue;
      planner::Planner& p = filter->planner_at(*idx);
      const std::int64_t old = p.total();
      const std::int64_t next = grow ? old + count : old - count;
      if (auto st = p.resize_total(next); !st) {
        for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
          (void)it->first->resize_total(it->second);
        }
        return st;
      }
      applied.emplace_back(&p, old);
    }
  }
  return util::Status::ok();
}

void ResourceGraph::bump_ancestor_non_up(VertexId from, std::int32_t delta) {
  if (delta == 0) return;
  for (VertexId a = from; a != kInvalidVertex;
       a = vertices_[a].containment_parent) {
    vertices_[a].non_up_below += delta;
  }
}

std::size_t ResourceGraph::reset_uniform_non_up(VertexId v, ResourceStatus s) {
  std::size_t n = 1;
  for (VertexId c : containment_children(v)) n += reset_uniform_non_up(c, s);
  vertices_[v].non_up_below =
      s != ResourceStatus::up ? static_cast<std::int32_t>(n - 1) : 0;
  return n;
}

std::map<InternId, std::int64_t> ResourceGraph::counted_subtree_counts(
    VertexId v) const {
  std::map<InternId, std::int64_t> counts;
  std::vector<VertexId> subtree;
  collect_subtree(v, subtree);
  for (VertexId u : subtree) {
    if (vertices_[u].status == ResourceStatus::down) continue;
    counts[vertices_[u].type] += vertices_[u].size;
  }
  return counts;
}

std::size_t ResourceGraph::created_count(std::string_view type) const {
  const auto t = types_.find(type);
  if (!t || *t >= by_type_.size()) return 0;
  return by_type_[*t].size();
}

util::Status ResourceGraph::set_status(VertexId v, ResourceStatus s) {
  if (v >= vertices_.size() || !vertices_[v].alive) {
    return util::Error{Errc::not_found, "set_status: unknown vertex"};
  }
  std::vector<VertexId> subtree;
  collect_subtree(v, subtree);
  if (s == ResourceStatus::down) {
    for (VertexId u : subtree) {
      if (in_use(u)) {
        return util::Error{
            Errc::resource_busy,
            "set_status: subtree holds active allocations; evict first (" +
                vertices_[u].path + ")"};
      }
    }
  }
  // Capacity delta for ancestor filters: only vertices whose counted-ness
  // (status != down) flips contribute, so repeated drains or re-downs are
  // free and mixed-status subtrees stay exact.
  std::map<InternId, std::int64_t> lost, gained;
  std::int32_t non_up_delta = 0;
  for (VertexId u : subtree) {
    const Vertex& vx = vertices_[u];
    const bool was_counted = vx.status != ResourceStatus::down;
    const bool now_counted = s != ResourceStatus::down;
    if (was_counted && !now_counted) lost[vx.type] += vx.size;
    if (!was_counted && now_counted) gained[vx.type] += vx.size;
    non_up_delta +=
        static_cast<std::int32_t>(s != ResourceStatus::up) -
        static_cast<std::int32_t>(vx.status != ResourceStatus::up);
  }
  // Filters *inside* the subtree advertise the counted capacity below
  // them: zero when the subtree goes down, full capacity otherwise. The
  // down case verified span-freedom above, so these resizes cannot
  // oversubscribe; treat a failure as corruption and roll back.
  std::vector<std::pair<planner::Planner*, std::int64_t>> applied;
  auto rollback = [&applied] {
    for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
      (void)it->first->resize_total(it->second);
    }
  };
  for (VertexId u : subtree) {
    planner::PlannerMulti* filter = vertices_[u].filter.get();
    if (filter == nullptr) continue;
    const auto counts = subtree_counts(u);
    for (std::size_t i = 0; i < filter->resource_count(); ++i) {
      planner::Planner& p = filter->planner_at(i);
      std::int64_t want = 0;
      if (s != ResourceStatus::down) {
        const auto type = types_.find(p.resource_type());
        if (type) {
          const auto it = counts.find(*type);
          want = it == counts.end() ? 0 : it->second;
        }
      }
      const std::int64_t old = p.total();
      if (old == want) continue;
      if (auto st = p.resize_total(want); !st) {
        rollback();
        return util::internal_error(
            "set_status: subtree filter resize failed at " +
            vertices_[u].path + ": " + st.error().message);
      }
      applied.emplace_back(&p, old);
    }
  }
  const VertexId parent = vertices_[v].containment_parent;
  for (const auto* delta : {&lost, &gained}) {
    if (delta->empty() || parent == kInvalidVertex) continue;
    if (auto st =
            resize_ancestor_filters(parent, *delta, /*grow=*/delta == &gained);
        !st) {
      rollback();
      return util::internal_error(
          "set_status: ancestor filter resize failed: " + st.error().message);
    }
  }
  // Past the last fallible step: commit statuses and the per-path
  // non-up bookkeeping.
  for (VertexId u : subtree) {
    --status_counts_[static_cast<std::size_t>(vertices_[u].status)];
    vertices_[u].status = s;
    ++status_counts_[static_cast<std::size_t>(s)];
  }
  reset_uniform_non_up(v, s);
  bump_ancestor_non_up(parent, non_up_delta);
  return util::Status::ok();
}

util::Status ResourceGraph::detach_subtree(VertexId v) {
  if (v >= vertices_.size() || !vertices_[v].alive) {
    return util::Error{Errc::not_found, "detach_subtree: unknown vertex"};
  }
  std::vector<VertexId> subtree;
  collect_subtree(v, subtree);
  for (VertexId u : subtree) {
    if (in_use(u)) {
      return util::Error{Errc::resource_busy,
                         "detach_subtree: vertex has active allocations"};
    }
  }
  // Ancestor filters give back only the capacity they were advertising:
  // down vertices inside the subtree were already subtracted.
  const auto counts = counted_subtree_counts(v);
  const VertexId parent = vertices_[v].containment_parent;
  if (parent != kInvalidVertex) {
    if (auto st = resize_ancestor_filters(parent, counts, /*grow=*/false);
        !st) {
      return st;
    }
    auto& edges = out_[parent];
    edge_count_ -= std::erase_if(edges, [&](const Edge& e) {
      if (e.dst != v || e.subsystem != containment_) return false;
      if (e.relation == contains_) drop_contains_in(v);
      return true;
    });
    bump_ancestor_non_up(
        parent,
        -(vertices_[v].non_up_below +
          (vertices_[v].status != ResourceStatus::up ? 1 : 0)));
  }
  for (VertexId u : subtree) {
    vertices_[u].alive = false;
    by_path_.erase(vertices_[u].path);
    --live_count_;
    --status_counts_[static_cast<std::size_t>(vertices_[u].status)];
    clear_out_edges(u);
  }
  return util::Status::ok();
}

bool ResourceGraph::in_use(VertexId u) const {
  const Vertex& vx = vertices_[u];
  return vx.schedule->span_count() != 0 || vx.x_checker->span_count() != 0 ||
         vx.covered_claims != 0;
}

void ResourceGraph::clear_out_edges(VertexId u) {
  for (const Edge& e : out_[u]) {
    if (e.relation == contains_) drop_contains_in(e.dst);
  }
  edge_count_ -= out_[u].size();
  out_[u].clear();
}

void ResourceGraph::add_contains_in(VertexId v) {
  if (++vertices_[v].contains_in == 2) ++multi_parent_;
}

void ResourceGraph::drop_contains_in(VertexId v) {
  if (vertices_[v].contains_in-- == 2) --multi_parent_;
}

void ResourceGraph::discard_detached_from(VertexId mark) {
  for (VertexId u = mark; u < vertices_.size(); ++u) {
    Vertex& vx = vertices_[u];
    if (!vx.alive) continue;
    vx.alive = false;
    if (auto it = by_path_.find(vx.path);
        it != by_path_.end() && it->second == u) {
      by_path_.erase(it);
    }
    --live_count_;
    --status_counts_[static_cast<std::size_t>(vx.status)];
    clear_out_edges(u);
  }
  // Unlike detach_subtree (whose names stay retired forever), a discard
  // rolls the transaction back completely: drop the creation records so
  // the next grow reuses the same fragment names.
  for (auto& bucket : by_type_) {
    while (!bucket.empty() && bucket.back() >= mark) bucket.pop_back();
  }
}

util::Status ResourceGraph::attach_subtree(VertexId parent,
                                           VertexId subtree_root) {
  if (parent >= vertices_.size() || subtree_root >= vertices_.size() ||
      !vertices_[parent].alive || !vertices_[subtree_root].alive) {
    return util::Error{Errc::not_found, "attach_subtree: unknown vertex"};
  }
  if (auto st = add_containment(parent, subtree_root); !st) return st;
  const auto counts = counted_subtree_counts(subtree_root);
  return resize_ancestor_filters(parent, counts, /*grow=*/true);
}

void ResourceGraph::set_subsystem_filter(std::vector<InternId> subsystems) {
  if (subsystems.empty()) subsystems.push_back(containment_);
  subsystem_filter_ = std::move(subsystems);
}

bool ResourceGraph::subsystem_visible(InternId subsystem) const {
  return std::find(subsystem_filter_.begin(), subsystem_filter_.end(),
                   subsystem) != subsystem_filter_.end();
}

bool ResourceGraph::validate() const {
  std::size_t by_status[kStatusCount] = {0, 0, 0};
  for (const Vertex& v : vertices_) {
    if (!v.alive) continue;
    ++by_status[static_cast<std::size_t>(v.status)];
    if (v.schedule == nullptr || v.x_checker == nullptr) return false;
    if (v.schedule->total() != v.size) return false;
    // Path registration must round-trip.
    auto it = by_path_.find(v.path);
    if (it == by_path_.end() || it->second != v.id) return false;
    if (v.containment_parent != kInvalidVertex) {
      const Vertex& p = vertices_[v.containment_parent];
      if (!p.alive) return false;
      if (v.path != p.path + "/" + v.name) return false;
    }
    // Pruning filter totals must equal the current *counted* subtree
    // capacity (down vertices are subtracted by set_status).
    if (v.filter != nullptr) {
      const auto counts = counted_subtree_counts(v.id);
      for (std::size_t i = 0; i < v.filter->resource_count(); ++i) {
        const planner::Planner& p = v.filter->planner_at(i);
        const auto type = types_.find(p.resource_type());
        if (!type) return false;
        const auto it2 = counts.find(*type);
        const std::int64_t want = it2 == counts.end() ? 0 : it2->second;
        if (p.total() != want) return false;
      }
    }
    // Incremental non-up accounting must agree with a fresh subtree scan.
    std::vector<VertexId> subtree;
    collect_subtree(v.id, subtree);
    std::int32_t non_up = 0;
    for (VertexId u : subtree) {
      if (u != v.id && vertices_[u].status != ResourceStatus::up) ++non_up;
    }
    if (v.non_up_below != non_up) return false;
  }
  for (std::size_t i = 0; i < kStatusCount; ++i) {
    if (by_status[i] != status_counts_[i]) return false;
  }
  return true;
}

}  // namespace fluxion::graph
