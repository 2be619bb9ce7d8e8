#include "graph/resource_graph.hpp"

#include <algorithm>
#include <cassert>
#include <map>

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

namespace {
/// Sum each type's entries of per-type counts into one, sorted by type.
/// A graph has few types, so a linear search of the sums found so far
/// beats sorting every entry.
void tally(std::vector<TypeCount>& counts) {
  std::size_t n = 0;
  for (const TypeCount& c : counts) {
    const auto end = counts.begin() + static_cast<std::ptrdiff_t>(n);
    const auto it = std::find_if(counts.begin(), end, [&](const TypeCount& t) {
      return t.type == c.type;
    });
    if (it != end) {
      it->count += c.count;
    } else {
      counts[n++] = c;
    }
  }
  counts.resize(n);
  std::sort(counts.begin(), counts.end(),
            [](const TypeCount& a, const TypeCount& b) {
              return a.type < b.type;
            });
}
}  // namespace

std::int64_t count_of(std::span<const TypeCount> counts,
                      InternId type) noexcept {
  const auto it = std::lower_bound(
      counts.begin(), counts.end(), type,
      [](const TypeCount& c, InternId t) { return c.type < t; });
  return it != counts.end() && it->type == type ? it->count : 0;
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
  ++structure_epoch_;
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
  ++structure_epoch_;
  out_[src].push_back(Edge{dst, subsystem, relation});
  ++edge_count_;
  if (relation == contains_) add_contains_in(dst);
  return util::Status::ok();
}

namespace {
void repath(ResourceGraph& g, VertexId v, const std::string& parent_path) {
  Vertex& vx = g.vertex(v);
  vx.path = parent_path + "/" + vx.name;
  for (VertexId c : g.containment_children(v)) repath(g, c, vx.path);
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
  repath(*this, child, vertices_[parent].path);
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
  const auto counts = counted_subtree_counts(v);
  auto filter = std::make_unique<planner::PlannerMulti>(plan_start_, horizon_);
  for (InternId t : types) {
    if (auto r = filter->add_resource(types_.name(t), count_of(counts, t), t);
        !r) {
      return r.error();
    }
  }
  vertices_[v].filter = std::move(filter);
  return util::Status::ok();
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
  VertexId at = kInvalidVertex;  // the vertex the next name lies under
  const auto first_named = [&](std::string_view name, auto&& candidates) {
    for (VertexId c : candidates) {
      const Vertex& cx = vertices_[c];
      if (cx.alive && cx.containment_parent == at && cx.name == name) return c;
    }
    return kInvalidVertex;
  };
  while (path.starts_with('/')) {
    path.remove_prefix(1);
    const std::string_view name = path.substr(0, path.find('/'));
    path.remove_prefix(name.size());
    at = at == kInvalidVertex
             ? first_named(name, std::views::iota(VertexId{0},
                                                  VertexId(vertices_.size())))
             : first_named(name, containment_children(at));
    if (at == kInvalidVertex) return std::nullopt;
  }
  if (at == kInvalidVertex) return std::nullopt;
  return at;
}

void ResourceGraph::collect_subtree(VertexId v,
                                    std::vector<VertexId>& out) const {
  std::vector<VertexId> stack{v};
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    out.push_back(u);
    // Pushed last-first, so the first child is visited first.
    for (VertexId c : containment_children(u) | std::views::reverse) {
      stack.push_back(c);
    }
  }
}

std::span<const TypeCount> ResourceGraph::subtree_counts(VertexId v) const {
  if (totals_epoch_ != structure_epoch_) {
    totals_.clear();
    total_lists_.clear();
    totals_of_.assign(vertices_.size(), kNoTotals);
    last_of_type_.assign(types_.size(), kNoTotals);
    totals_epoch_ = structure_epoch_;
  }
  if (totals_of_[v] == kNoTotals) fill_totals(v);
  return total_list(totals_of_[v]);
}

void ResourceGraph::fill_totals(VertexId top) const {
  // Post-order over top's subtree, stopping at vertices summed earlier in
  // this epoch: a vertex's totals are its own pool plus each child's
  // cached totals, so each vertex is summed once per epoch. kPending marks
  // a vertex whose children are still being summed. A vertex whose totals
  // equal those of the last vertex of its type summed shares that list,
  // so a regular hierarchy stores a few lists, not one per vertex.
  constexpr std::uint32_t kPending = kNoTotals - 1;
  std::vector<VertexId> stack{top};
  std::vector<TypeCount> parts;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    if (totals_of_[u] == kNoTotals) {
      totals_of_[u] = kPending;
      for (VertexId c : containment_children(u)) {
        if (totals_of_[c] == kNoTotals) stack.push_back(c);
      }
      continue;
    }
    stack.pop_back();
    if (totals_of_[u] != kPending) continue;  // reached a second time
    parts.assign(1, TypeCount{vertices_[u].type, vertices_[u].size});
    for (VertexId c : containment_children(u)) {
      if (totals_of_[c] == kPending) continue;  // a cycle into the walk
      const auto list = total_list(totals_of_[c]);
      parts.insert(parts.end(), list.begin(), list.end());
    }
    tally(parts);
    std::uint32_t& last = last_of_type_[vertices_[u].type];
    if (last == kNoTotals || !std::ranges::equal(total_list(last), parts)) {
      last = static_cast<std::uint32_t>(total_lists_.size());
      const auto b = static_cast<std::uint32_t>(totals_.size());
      totals_.insert(totals_.end(), parts.begin(), parts.end());
      total_lists_.emplace_back(b, static_cast<std::uint32_t>(totals_.size()));
    }
    totals_of_[u] = last;
  }
}

bool ResourceGraph::in_subtree(VertexId v, VertexId top) const {
  for (VertexId a = v; a != kInvalidVertex;
       a = vertices_[a].containment_parent) {
    if (a == top) return true;
  }
  return false;
}

util::Status ResourceGraph::resize_ancestor_filters(
    VertexId from, std::span<const TypeCount> delta, bool grow) {
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

void ResourceGraph::reset_uniform_non_up(std::span<const VertexId> subtree,
                                         ResourceStatus s) {
  // Children follow their parent in pre-order, so a reverse pass has
  // every child's count before its parent's.
  for (auto it = subtree.rbegin(); it != subtree.rend(); ++it) {
    std::int32_t below = 0;
    if (s != ResourceStatus::up) {
      for (VertexId c : containment_children(*it)) {
        below += vertices_[c].non_up_below + 1;
      }
    }
    vertices_[*it].non_up_below = below;
  }
}

std::vector<TypeCount> ResourceGraph::counted_subtree_counts(
    VertexId v) const {
  std::vector<VertexId> subtree;
  collect_subtree(v, subtree);
  std::vector<TypeCount> counts;
  for (VertexId u : subtree) {
    if (vertices_[u].status == ResourceStatus::down) continue;
    counts.push_back({vertices_[u].type, vertices_[u].size});
  }
  tally(counts);
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
  std::vector<TypeCount> lost, gained;
  std::int32_t non_up_delta = 0;
  for (VertexId u : subtree) {
    const Vertex& vx = vertices_[u];
    const bool was_counted = vx.status != ResourceStatus::down;
    const bool now_counted = s != ResourceStatus::down;
    if (was_counted && !now_counted) lost.push_back({vx.type, vx.size});
    if (!was_counted && now_counted) gained.push_back({vx.type, vx.size});
    non_up_delta +=
        static_cast<std::int32_t>(s != ResourceStatus::up) -
        static_cast<std::int32_t>(vx.status != ResourceStatus::up);
  }
  tally(lost);
  tally(gained);
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
        if (type) want = count_of(counts, *type);
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
  reset_uniform_non_up(subtree, s);
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
  // clear_out_edges bumps the structure epoch.
  for (VertexId u : subtree) {
    vertices_[u].alive = false;
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
  ++structure_epoch_;
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
  // clear_out_edges bumps the structure epoch for each vertex discarded.
  for (VertexId u = mark; u < vertices_.size(); ++u) {
    Vertex& vx = vertices_[u];
    if (!vx.alive) continue;
    vx.alive = false;
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
  // add_containment's edges bump the structure epoch.
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
    // The stored path is the one derived from the containment parents.
    if (v.containment_parent == kInvalidVertex) {
      if (v.path != "/" + v.name) return false;
    } else {
      const Vertex& p = vertices_[v.containment_parent];
      if (!p.alive || v.path != p.path + "/" + v.name) return false;
    }
    // Pruning filter totals must equal the current *counted* subtree
    // capacity (down vertices are subtracted by set_status).
    if (v.filter != nullptr) {
      const auto counts = counted_subtree_counts(v.id);
      for (std::size_t i = 0; i < v.filter->resource_count(); ++i) {
        const planner::Planner& p = v.filter->planner_at(i);
        const auto type = types_.find(p.resource_type());
        if (!type) return false;
        if (p.total() != count_of(counts, *type)) return false;
      }
    }
    // Incremental non-up accounting and the cached subtree totals must
    // agree with a fresh subtree scan.
    std::vector<VertexId> subtree;
    collect_subtree(v.id, subtree);
    std::int32_t non_up = 0;
    std::map<InternId, std::int64_t> units;
    for (VertexId u : subtree) {
      if (u != v.id && vertices_[u].status != ResourceStatus::up) ++non_up;
      units[vertices_[u].type] += vertices_[u].size;
    }
    if (v.non_up_below != non_up) return false;
    if (totals_epoch_ == structure_epoch_ && totals_of_[v.id] != kNoTotals &&
        !std::ranges::equal(total_list(totals_of_[v.id]), units,
                            [](const TypeCount& c, const auto& u) {
                              return c.type == u.first && c.count == u.second;
                            })) {
      return false;
    }
  }
  for (std::size_t i = 0; i < kStatusCount; ++i) {
    if (by_status[i] != status_counts_[i]) return false;
  }
  return true;
}

}  // namespace fluxion::graph
