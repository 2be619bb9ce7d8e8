#include "traverser/traverser.hpp"

#include <algorithm>
#include <string_view>
#include <tuple>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace fluxion::traverser {

using util::Errc;

namespace {
/// Property constraints (jobspec `requires`): "key" demands the property
/// exists; "key=value" demands an exact match.
obs::Op to_obs_op(MatchOp op) noexcept {
  switch (op) {
    case MatchOp::allocate:
      return obs::Op::allocate;
    case MatchOp::allocate_orelse_reserve:
      return obs::Op::allocate_orelse_reserve;
    case MatchOp::satisfiability:
      return obs::Op::satisfiability;
    case MatchOp::allocate_with_satisfiability:
      return obs::Op::allocate_with_satisfiability;
  }
  return obs::Op::allocate;
}

/// Add one walk's counts to their obs::monitor() mirrors; the walk itself
/// counts only into MatchScratch::stats.
void publish_walk_counters(const TraverserStats& d) {
  if (!obs::enabled()) return;
  auto& m = obs::monitor();
  m.trav_visits.inc(d.visits);
  m.trav_pruned.inc(d.pruned);
  m.trav_status_pruned.inc(d.status_pruned);
  m.trav_postorder_rejects.inc(d.postorder_rejects);
  m.trav_first_match_stops.inc(d.first_match_stops);
  m.trav_match_attempts.inc(d.match_attempts);
}

/// Fault-point step names of the rebook families (Rebook::Family order).
constexpr const char* kFamilyPoints[] = {"claim", "shared", "filter"};

/// Count one Scheduler-Driven Filter Update of `spans` filter spans.
void publish_sdfu(std::size_t spans) {
  if (!obs::enabled()) return;
  auto& m = obs::monitor();
  m.sdfu_commits.inc();
  m.sdfu_spans.inc(spans);
  m.sdfu_spans_per_commit.add(static_cast<double>(spans));
}

bool meets_requirements(const graph::Vertex& v,
                        const std::vector<std::string>& reqs) {
  for (const std::string& req : reqs) {
    const auto eq = req.find('=');
    if (eq == std::string::npos) {
      if (!v.properties.contains(req)) return false;
    } else {
      auto it = v.properties.find(req.substr(0, eq));
      if (it == v.properties.end() || it->second != req.substr(eq + 1)) {
        return false;
      }
    }
  }
  return true;
}
}  // namespace

void Traverser::Selection::rollback(const Checkpoint& cp) {
  if (obs::enabled() &&
      (claims.size() > cp.claims || shared_marks.size() > cp.shared)) {
    obs::monitor().trav_rollbacks.inc();
  }
  while (claims.size() > cp.claims) {
    const Claim& c = claims.back();
    if (c.whole_instance) {
      pending_excl.erase(c.vertex);
    } else {
      auto it = pending_units.find(c.vertex);
      it->second -= c.units;
      if (it->second == 0) pending_units.erase(it);
    }
    claims.pop_back();
  }
  while (shared_marks.size() > cp.shared) {
    shared_set.erase(shared_marks.back());
    shared_marks.pop_back();
  }
}

void Traverser::Selection::push_claim(const Claim& c) {
  claims.push_back(c);
  if (c.whole_instance) {
    pending_excl.insert(c.vertex);
  } else {
    pending_units[c.vertex] += c.units;
  }
}

bool Traverser::Selection::mark_shared(VertexId v) {
  if (!shared_set.insert(v).second) return false;
  shared_marks.push_back(v);
  return true;
}

Traverser::Traverser(graph::ResourceGraph& g, VertexId root,
                     const MatchPolicy& policy)
    : g_(g), root_(root), policy_(policy) {}

RejectReason Traverser::shareable_reason(VertexId v, const util::TimeWindow& w,
                                         const Selection& sel) const {
  if (sel.pending_excl.contains(v)) return RejectReason::exclusivity;
  const graph::Vertex& vx = g_.vertex(v);
  if (vx.status != graph::ResourceStatus::up) return RejectReason::status;
  // A vertex is walkable by a shared job iff no exclusive claim holds any
  // of its units during the window.
  if (!vx.schedule->avail_during(w.start, w.duration, vx.size)) {
    return RejectReason::busy;
  }
  return RejectReason::none;
}

RejectReason Traverser::selection_reason(VertexId v,
                                         const Selection& sel) const {
  if (sel.pending_excl.contains(v) || sel.shared_set.contains(v)) {
    return RejectReason::exclusivity;
  }
  if (auto it = sel.pending_units.find(v);
      it != sel.pending_units.end() && it->second > 0) {
    return RejectReason::exclusivity;
  }
  return RejectReason::none;
}

RejectReason Traverser::exclusive_reason(VertexId v, const util::TimeWindow& w,
                                         const Selection& sel) const {
  if (const RejectReason why = selection_reason(v, sel);
      why != RejectReason::none) {
    return why;
  }
  const graph::Vertex& vx = g_.vertex(v);
  // A whole-instance claim covers the containment subtree, so every
  // vertex below must be up too — non_up_below makes that O(1). A non-up
  // descendant blocks the *exclusive* claim specifically, hence the
  // exclusivity attribution rather than status.
  if (vx.status != graph::ResourceStatus::up || vx.non_up_below != 0) {
    return RejectReason::exclusivity;
  }
  if (!vx.schedule->avail_during(w.start, w.duration, vx.size)) {
    return RejectReason::busy;
  }
  // No shared walker may overlap the window either.
  if (!vx.x_checker->avail_during(w.start, w.duration,
                                  graph::kSharedUseMax)) {
    return RejectReason::exclusivity;
  }
  // Every job walks through the root, but neither walks nor restore mark
  // it: a span per job on one planner costs more than the rare root
  // claim, which asks whether any job's window overlaps instead.
  if (v == root_ && any_job_during(w)) return RejectReason::busy;
  return RejectReason::none;
}

bool Traverser::any_job_during(const util::TimeWindow& w) const {
  return std::any_of(jobs_.begin(), jobs_.end(), [&w](const auto& e) {
    const MatchResult& r = e.second.result;
    return r.at < w.start + w.duration && w.start < r.at + r.duration;
  });
}

bool Traverser::filter_admits(VertexId v, const util::TimeWindow& w,
                              const DenseDemand& demand) const {
  const planner::PlannerMulti* filter = g_.vertex(v).filter.get();
  if (filter == nullptr) return true;
  for (util::InternId type : demand.touched()) {
    const std::int64_t amount = demand.at(type);
    if (amount <= 0) continue;
    const auto idx = filter->index_of_id(type);
    if (!idx) continue;  // type untracked by this filter
    if (!filter->planner_at(*idx).avail_during(w.start, w.duration, amount)) {
      return false;
    }
  }
  return true;
}

template <class Visit>
bool Traverser::walk_candidates(VertexId from, util::InternId type,
                                const util::TimeWindow& w,
                                const Selection& sel,
                                const DenseDemand& per_instance_demand,
                                ParentMap& parent_of, MatchScratch& sc,
                                const Visit& visit) const {
  ++sc.stats.visits;
  ++sc.stats.last_visits;
  const graph::Vertex& vx = g_.vertex(from);
  // Preorder status pruning (dynamic-resource layer): a non-up vertex is
  // never matched and never descended into, so a downed or drained
  // subtree costs one visit, not a walk.
  if (vx.status != graph::ResourceStatus::up) {
    ++sc.stats.status_pruned;
    if (sc.rejections.enabled) sc.rejections.add(vx.type, RejectReason::status);
    return false;
  }
  // Do not search for a type nested inside itself.
  if (vx.type == type) return visit(from);
  for (const graph::Edge& e : g_.out_edges(from)) {
    if (e.relation != g_.contains_rel() ||
        !g_.subsystem_visible(e.subsystem) || !g_.vertex(e.dst).alive) {
      continue;
    }
    const VertexId child = e.dst;
    // A vertex reachable through several visible subsystems (e.g. a
    // rabbit contained by both its rack and the cluster, §5.1) must be
    // considered once.
    if (parent_of.contains(child)) continue;
    const graph::Vertex& cx = g_.vertex(child);
    if (cx.type != type) {
      // Pass-through: the walk may continue only through vertices that a
      // shared job could use, and only where the pruning filter admits at
      // least one instance of the pending demand (paper §3.4).
      if (const RejectReason why = shareable_reason(child, w, sel);
          why != RejectReason::none) {
        // A non-up pass-through child is a subtree skipped as non-up,
        // same as the preorder check above would have found.
        if (why == RejectReason::status) ++sc.stats.status_pruned;
        if (sc.rejections.enabled) sc.rejections.add(cx.type, why);
        continue;
      }
      if (!filter_admits(child, w, per_instance_demand)) {
        ++sc.stats.pruned;
        if (sc.rejections.enabled) {
          sc.rejections.add(cx.type, RejectReason::filter);
        }
        continue;
      }
    }
    parent_of.set(child, from);
    if (walk_candidates(child, type, w, sel, per_instance_demand, parent_of,
                        sc, visit)) {
      return true;
    }
  }
  return false;
}

void Traverser::mark_chain(VertexId candidate, VertexId stop_above,
                           const ParentMap& parent_of, Selection& sel) const {
  for (VertexId p = parent_of.find(candidate);
       p != graph::kInvalidVertex && p != stop_above;
       p = parent_of.find(p)) {
    sel.mark_shared(p);
  }
}

void Traverser::instance_demand(const jobspec::Resource& req,
                                DenseDemand& out) const {
  out.reset(g_.type_count());
  struct Rec {
    const graph::ResourceGraph& g;
    DenseDemand& demand;
    void walk(const jobspec::Resource& r, std::int64_t mult) {
      const std::int64_t total = mult * r.count;
      if (!r.is_slot()) {
        // find_type, not intern_type: the probe path must not mutate the
        // interner. An unknown type has no vertices and no filter slot,
        // so omitting it changes no outcome.
        if (auto t = g.find_type(r.type)) demand.add(*t, total);
      }
      for (const jobspec::Resource& c : r.with) walk(c, total);
    }
  } rec{g_, out};
  // One instance of req itself plus its multiplied children.
  if (!req.is_slot()) {
    if (auto t = g_.find_type(req.type)) out.add(*t, 1);
  }
  for (const jobspec::Resource& c : req.with) rec.walk(c, 1);
}

bool Traverser::satisfy(const jobspec::Resource& req, VertexId under,
                        std::int64_t needed, bool under_slot, bool under_excl,
                        const util::TimeWindow& w, Selection& sel,
                        std::size_t depth, MatchScratch& sc) const {
  // `needed` arrives as req.count x enclosing slot multipliers; recover
  // the multiplier to scale a moldable max (paper §5.5).
  const std::int64_t mult = req.count > 0 ? needed / req.count : 1;
  const std::int64_t needed_max =
      req.count_max > req.count ? mult * req.count_max : needed;

  if (req.is_slot()) {
    // A slot multiplies its children's demand; everything below is
    // exclusively bound to the job (paper §4.2). Children descend a
    // scratch level: the enclosing selection frame stays live.
    for (const jobspec::Resource& c : req.with) {
      if (!satisfy(c, under, c.count * needed, /*under_slot=*/true,
                   under_excl, w, sel, depth + 1, sc)) {
        return false;
      }
    }
    // Moldable slot: claim whole extra task slots while they fit.
    for (std::int64_t extra = needed; extra < needed_max; ++extra) {
      const auto cp = sel.checkpoint();
      bool ok = true;
      for (const jobspec::Resource& c : req.with) {
        if (!satisfy(c, under, c.count, /*under_slot=*/true, under_excl, w,
                     sel, depth + 1, sc)) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        sel.rollback(cp);
        break;
      }
    }
    return true;
  }
  const bool claiming = under_slot || req.exclusive;
  if (req.with.empty() && claiming) {
    return satisfy_units(req, under, needed, needed_max, /*exclusive=*/true,
                         under_excl, w, sel, depth, sc);
  }
  return satisfy_instances(req, under, needed, needed_max, claiming,
                           under_excl, w, sel, depth, sc);
}

bool Traverser::satisfy_instances(const jobspec::Resource& req,
                                  VertexId under, std::int64_t needed,
                                  std::int64_t needed_max, bool exclusive,
                                  bool under_excl, const util::TimeWindow& w,
                                  Selection& sel, std::size_t depth,
                                  MatchScratch& sc) const {
  // This frame stays live across the candidate loop below; child
  // recursion uses depth + 1 so it can never clobber it.
  MatchScratch::Frame& f = sc.frame(depth);
  instance_demand(req, f.demand);
  f.candidates.clear();
  f.parent_of.reset(g_.vertex_count());

  // One candidate attempt, shared by both modes: feasibility checks,
  // claim, children recursion, pass-through marks. Returns whether the
  // candidate was taken.
  std::int64_t count = 0;
  auto attempt = [&](VertexId u) -> bool {
    const auto cp = sel.checkpoint();
    const graph::Vertex& ux = g_.vertex(u);
    if (!meets_requirements(ux, req.requires_)) {
      if (sc.rejections.enabled) {
        sc.rejections.add(ux.type, RejectReason::requirements);
      }
      return false;
    }
    if (exclusive) {
      // A covered claim needs no planner query: no other job can hold a
      // vertex its enclosing claim holds.
      const bool covered = covered_in_walk(u, under, under_excl);
      if (const RejectReason why = covered ? selection_reason(u, sel)
                                           : exclusive_reason(u, w, sel);
          why != RejectReason::none) {
        if (sc.rejections.enabled) sc.rejections.add(ux.type, why);
        return false;
      }
      if (!filter_admits(u, w, f.demand)) {
        ++sc.stats.pruned;
        if (sc.rejections.enabled) {
          sc.rejections.add(ux.type, RejectReason::filter);
        }
        return false;
      }
      sel.push_claim(Claim{u, ux.size, /*exclusive=*/true,
                           /*whole_instance=*/true, under_excl, covered});
    } else {
      if (const RejectReason why = shareable_reason(u, w, sel);
          why != RejectReason::none) {
        if (sc.rejections.enabled) sc.rejections.add(ux.type, why);
        return false;
      }
      if (!filter_admits(u, w, f.demand)) {
        ++sc.stats.pruned;
        if (sc.rejections.enabled) {
          sc.rejections.add(ux.type, RejectReason::filter);
        }
        return false;
      }
      sel.mark_shared(u);
    }
    bool ok = true;
    for (const jobspec::Resource& c : req.with) {
      // Children inherit the exclusivity context: inside a slot (or an
      // exclusive instance), everything below stays exclusive.
      if (!satisfy(c, u, c.count, /*under_slot=*/exclusive,
                   under_excl || exclusive, w, sel, depth + 1, sc)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      ++sc.stats.postorder_rejects;
      if (sc.rejections.enabled) {
        sc.rejections.add(ux.type, RejectReason::postorder);
      }
      sel.rollback(cp);
      return false;
    }
    mark_chain(u, under, f.parent_of, sel);
    ++count;
    return true;
  };

  // find_type, not intern_type (probe path must not mutate the interner):
  // a type the graph has never seen has no candidates, exactly as the
  // walk would discover.
  const auto type = g_.find_type(req.type);
  if (sc.mode == TraversalMode::first_match) {
    // Claim inline during the discovery walk and unwind once covered —
    // no candidate list, no ranking, no policy call.
    if (type && walk_candidates(under, *type, w, sel, f.demand, f.parent_of,
                                sc, [&](VertexId u) {
                                  attempt(u);
                                  return count == needed_max;
                                })) {
      ++sc.stats.first_match_stops;
    }
    return count >= needed;
  }

  if (type) {
    walk_candidates(under, *type, w, sel, f.demand, f.parent_of, sc,
                    [&f](VertexId u) {
                      f.candidates.push_back(u);
                      return false;
                    });
  }
  if (static_cast<std::int64_t>(f.candidates.size()) < needed) return false;
  policy_.plan_selection(g_, f.candidates, needed);

  for (VertexId u : f.candidates) {
    if (count == needed_max) break;
    attempt(u);
  }
  return count >= needed;
}

bool Traverser::satisfy_units(const jobspec::Resource& req, VertexId under,
                              std::int64_t needed, std::int64_t needed_max,
                              bool exclusive, bool under_excl,
                              const util::TimeWindow& w, Selection& sel,
                              std::size_t depth, MatchScratch& sc) const {
  MatchScratch::Frame& f = sc.frame(depth);
  f.demand.reset(g_.type_count());
  f.candidates.clear();
  f.parent_of.reset(g_.vertex_count());

  std::int64_t remaining = needed_max;
  auto take_units = [&](VertexId u) -> bool {
    const graph::Vertex& ux = g_.vertex(u);
    if (sel.pending_excl.contains(u)) {
      if (sc.rejections.enabled) {
        sc.rejections.add(ux.type, RejectReason::exclusivity);
      }
      return false;
    }
    if (!meets_requirements(ux, req.requires_)) {
      if (sc.rejections.enabled) {
        sc.rejections.add(ux.type, RejectReason::requirements);
      }
      return false;
    }
    // A covered vertex is wholly this job's: no planner query.
    const bool covered = covered_in_walk(u, under, under_excl);
    std::int64_t free = ux.size;
    if (!covered) {
      auto avail = ux.schedule->avail_resources_during(w.start, w.duration);
      if (!avail) {
        if (sc.rejections.enabled) {
          sc.rejections.add(ux.type, RejectReason::busy);
        }
        return false;
      }
      free = *avail;
    }
    if (auto it = sel.pending_units.find(u); it != sel.pending_units.end()) {
      free -= it->second;
    }
    const std::int64_t take = std::min(free, remaining);
    if (take <= 0) {
      if (sc.rejections.enabled) {
        sc.rejections.add(ux.type, RejectReason::busy);
      }
      return false;
    }
    if (exclusive && take == ux.size) {
      // Whole-vertex exclusive claim: no shared walker may overlap.
      if (const RejectReason why = covered ? selection_reason(u, sel)
                                           : exclusive_reason(u, w, sel);
          why != RejectReason::none) {
        if (sc.rejections.enabled) sc.rejections.add(ux.type, why);
        return false;
      }
      sel.push_claim(Claim{u, take, true, /*whole_instance=*/true,
                           under_excl, covered});
    } else {
      sel.push_claim(Claim{u, take, exclusive, /*whole_instance=*/false,
                           under_excl, covered});
    }
    mark_chain(u, under, f.parent_of, sel);
    remaining -= take;
    return true;
  };

  const auto type = g_.find_type(req.type);
  if (sc.mode == TraversalMode::first_match) {
    if (type) {
      f.demand.add(*type, 1);
      if (walk_candidates(under, *type, w, sel, f.demand, f.parent_of, sc,
                          [&](VertexId u) {
                            take_units(u);
                            return remaining == 0;
                          })) {
        ++sc.stats.first_match_stops;
      }
    }
    return needed_max - remaining >= needed;
  }

  if (type) {
    f.demand.add(*type, 1);
    walk_candidates(under, *type, w, sel, f.demand, f.parent_of, sc,
                    [&f](VertexId u) {
                      f.candidates.push_back(u);
                      return false;
                    });
  }
  policy_.plan_selection(g_, f.candidates, needed);

  for (VertexId u : f.candidates) {
    if (remaining == 0) break;
    take_units(u);
  }
  // Success once the required minimum is covered; anything beyond it was
  // the moldable bonus.
  return needed_max - remaining >= needed;
}

bool Traverser::select_all(const jobspec::Jobspec& js,
                           const util::TimeWindow& w, Selection& sel,
                           MatchScratch& sc) const {
  ++sc.stats.match_attempts;
  // Walks start at the root without the pass-through check its children
  // get, so a job holding the root keeps every other walk out here. A
  // root nobody claims has an empty schedule and costs no planner query.
  const graph::Vertex& rx = g_.vertex(root_);
  if (rx.schedule->span_count() != 0 &&
      !rx.schedule->avail_during(w.start, w.duration, rx.size)) {
    if (sc.rejections.enabled) sc.rejections.add(rx.type, RejectReason::busy);
    return false;
  }
  for (const jobspec::Resource& r : js.resources) {
    if (!satisfy(r, root_, r.count, /*under_slot=*/false,
                 /*under_excl=*/false, w, sel, 0, sc)) {
      return false;
    }
  }
  return true;
}

util::Status Traverser::release_record(JobRecord& rec) {
  // Release everything we can even if one removal fails — leaving spans
  // behind because an earlier one was already gone only compounds the
  // damage. The first failure is reported as corruption.
  bool failed = false;
  std::string detail;
  auto note = [&](const util::Status& st, const char* what, VertexId v) {
    if (st || failed) return;
    failed = true;
    detail = std::string("release_record: ") + what + " rem_span failed on " +
             g_.vertex(v).path + ": " + st.error().message;
  };
  for (const CommittedClaim& cc : rec.claims) {
    note(unbook(cc), "schedule", cc.claim.vertex);
  }
  for (auto& [v, id] : rec.shared_spans) {
    note(g_.vertex(v).x_checker->rem_span(id), "shared-use", v);
  }
  for (auto& fs : rec.filter_spans) {
    note(g_.vertex(fs.vertex).filter->rem_span(fs.span), "pruning filter",
         fs.vertex);
  }
  rec.claims.clear();
  rec.shared_spans.clear();
  rec.filter_spans.clear();
  if (failed) return util::internal_error(std::move(detail));
  return util::Status::ok();
}

bool Traverser::ancestors_admit(VertexId v, bool whole, TimePoint start,
                                Duration d,
                                std::unordered_set<VertexId>& checked) const {
  if (whole &&
      (!g_.vertex(v).x_checker->avail_during(start, d, graph::kSharedUseMax) ||
       (v == root_ && any_job_during({start, d})))) {
    return false;
  }
  for (VertexId a = g_.vertex(v).containment_parent;
       a != graph::kInvalidVertex && !checked.contains(a);
       a = g_.vertex(a).containment_parent) {
    const graph::Vertex& ax = g_.vertex(a);
    if (!ax.schedule->avail_during(start, d, ax.size)) return false;
    checked.insert(a);
  }
  return true;
}

util::Status Traverser::unbook(const CommittedClaim& cc) {
  graph::Vertex& vx = g_.vertex(cc.claim.vertex);
  if (!cc.claim.covered) return vx.schedule->rem_span(cc.span);
  --vx.covered_claims;
  return util::Status::ok();
}

util::Status Traverser::apply_selection(JobRecord& rec,
                                        const util::TimeWindow& w,
                                        const Selection& sel) {
  Rebook& p = rebook_;
  p.start(rec);
  for (const Claim& c : sel.claims) p.add(rec, {c, w, planner::kInvalidSpan});
  for (VertexId v : sel.shared_marks) p.add(rec, v, w);
  sdfu_loads(std::span(rec.claims).subspan(p.claims), rec);
  const std::size_t loads = rec.filter_spans.size() - p.filters;
  if (auto st = rebook(rec, "apply"); !st) return st;
  publish_sdfu(loads);
  return util::Status::ok();
}

void Traverser::sdfu_loads(std::span<const CommittedClaim> claims,
                           JobRecord& rec) {
  std::map<std::tuple<VertexId, TimePoint, Duration>, FilterSpan> loads;
  for (const CommittedClaim& cc : claims) {
    if (cc.claim.under_exclusive) continue;
    const VertexId v = cc.claim.vertex;
    const std::map<util::InternId, std::int64_t> contribution =
        cc.claim.whole_instance
            ? g_.subtree_counts(v)
            : std::map<util::InternId, std::int64_t>{
                  {g_.vertex(v).type, cc.claim.units}};
    for (VertexId a = v; a != graph::kInvalidVertex;
         a = g_.vertex(a).containment_parent) {
      const planner::PlannerMulti* filter = g_.vertex(a).filter.get();
      if (filter == nullptr) continue;
      FilterSpan& load = loads[{a, cc.window.start, cc.window.duration}];
      load.vertex = a;
      load.window = cc.window;
      load.counts.resize(filter->resource_count(), 0);
      for (const auto& [type, amount] : contribution) {
        if (auto idx = filter->index_of_id(type)) load.counts[*idx] += amount;
      }
    }
  }
  for (auto& [key, load] : loads) {
    if (std::any_of(load.counts.begin(), load.counts.end(),
                    [](std::int64_t c) { return c != 0; })) {
      rebook_.add(rec, std::move(load));
    }
  }
}

util::Status Traverser::rebook_step(JobRecord& rec, const Rebook::Step& s,
                                    bool book, const char* op) {
  using Family = Rebook::Family;
  graph::Vertex& vx = g_.vertex(s.vertex);
  // Each planner call is a fault point.
  auto injected = [&] {
    return op != nullptr &&
           fault_fires(op, book ? kFamilyPoints[static_cast<int>(s.family)]
                                : "rem");
  };
  auto fault = [] {
    return util::Status(util::Error{Errc::resource_busy, "injected fault"});
  };
  // A booking writes its span id into the slot it books.
  auto put = [](util::Expected<planner::SpanId> span, planner::SpanId& id) {
    if (!span) return util::Status(span.error());
    id = *span;
    return util::Status::ok();
  };
  switch (s.family) {
    case Family::claim: {
      CommittedClaim& cc = rec.claims[s.slot];
      // Booked by its enclosing claim's span; rebook() moves its count.
      if (cc.claim.covered) return util::Status::ok();
      if (injected()) return fault();
      if (!book) return vx.schedule->rem_span(cc.span);
      return put(vx.schedule->add_span(cc.window.start, cc.window.duration,
                                       cc.claim.units),
                 cc.span);
    }
    case Family::shared: {
      planner::SpanId& id = rec.shared_spans[s.slot].second;
      if (injected()) return fault();
      if (!book) return vx.x_checker->rem_span(id);
      return put(vx.x_checker->add_span(s.window.start, s.window.duration, 1),
                 id);
    }
    case Family::filter: {
      FilterSpan& fs = rec.filter_spans[s.slot];
      if (injected()) return fault();
      if (!book) return vx.filter->rem_span(fs.span);
      return put(vx.filter->add_span(fs.window.start, fs.window.duration,
                                     fs.counts),
                 fs.span);
    }
  }
  return util::Status::ok();
}

util::Status Traverser::rebook(JobRecord& rec, const char* op) {
  using Family = Rebook::Family;
  Rebook& p = rebook_;
  bool released = false;
  for (std::size_t done = 0; done < p.steps.size(); ++done) {
    const Rebook::Step& s = p.steps[done];
    const util::Status st = rebook_step(rec, s, s.add, op);
    released = released || !s.add;
    if (st) continue;
    std::string what = std::string(op) + ": " +
                       (s.add ? "booking " : "releasing ") +
                       kFamilyPoints[static_cast<int>(s.family)] +
                       " span on " + g_.vertex(s.vertex).path +
                       " failed: " + st.error().message;
    bool rollback_ok = true;
    while (done-- > 0) {
      const Rebook::Step& u = p.steps[done];
      rollback_ok &= static_cast<bool>(rebook_step(rec, u, !u.add, nullptr));
    }
    rec.claims.resize(p.claims);
    rec.shared_spans.resize(p.shared);
    rec.filter_spans.resize(p.filters);
    return util::internal_error(std::move(what) +
                                (rollback_ok ? "" : "; rollback incomplete"));
  }
  // A covered claim holds no span, only a count on its vertex, which
  // moves once nothing can fail any more.
  for (std::size_t i = p.claims; i < rec.claims.size(); ++i) {
    const Claim& c = rec.claims[i].claim;
    if (c.covered) ++g_.vertex(c.vertex).covered_claims;
  }
  if (!released) return util::Status::ok();
  // The released slots leave the record, marked first so the slot
  // indices stay valid.
  for (const Rebook::Step& s : p.steps) {
    if (s.add) continue;
    switch (s.family) {
      case Family::claim: {
        Claim& c = rec.claims[s.slot].claim;
        if (c.covered) --g_.vertex(c.vertex).covered_claims;
        c.vertex = graph::kInvalidVertex;
        break;
      }
      case Family::shared:
        rec.shared_spans[s.slot].first = graph::kInvalidVertex;
        break;
      case Family::filter:
        rec.filter_spans[s.slot].vertex = graph::kInvalidVertex;
        break;
    }
  }
  std::erase_if(rec.claims, [](const CommittedClaim& cc) {
    return cc.claim.vertex == graph::kInvalidVertex;
  });
  std::erase_if(rec.shared_spans, [](const auto& mark) {
    return mark.first == graph::kInvalidVertex;
  });
  std::erase_if(rec.filter_spans, [](const FilterSpan& fs) {
    return fs.vertex == graph::kInvalidVertex;
  });
  return util::Status::ok();
}

void Traverser::refresh_resources(JobRecord& rec) const {
  std::map<VertexId, ResourceUnit> merged;
  for (const CommittedClaim& cc : rec.claims) {
    ResourceUnit& ru = merged[cc.claim.vertex];
    ru.vertex = cc.claim.vertex;
    ru.units += cc.claim.units;
    ru.exclusive = ru.exclusive || cc.claim.exclusive;
  }
  rec.result.resources.clear();
  for (auto& [v, ru] : merged) rec.result.resources.push_back(ru);
}

util::Expected<MatchResult> Traverser::commit_selection(
    JobId job, const util::TimeWindow& w, TimePoint now, Selection& sel) {
  JobRecord rec;
  rec.result.job = job;
  rec.result.at = w.start;
  rec.result.duration = w.duration;
  rec.result.reserved = w.start > now;
  if (auto st = apply_selection(rec, w, sel); !st) return st.error();
  refresh_resources(rec);
  const MatchResult result = rec.result;
  jobs_.emplace(job, std::move(rec));
  release_times_[w.end()] += 1;
  return result;
}

util::Expected<MatchResult> Traverser::grow_impl(JobId job,
                                                 const jobspec::Jobspec& extra,
                                                 TimePoint now) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "grow: unknown job"};
  }
  JobRecord& rec = it->second;
  const TimePoint end = rec.result.at + rec.result.duration;
  const TimePoint start = std::max(now, rec.result.at);
  if (start >= end) {
    return util::Error{Errc::out_of_range, "grow: job window already over"};
  }
  const util::TimeWindow w{start, end - start};
  scratch_.stats = TraverserStats{};
  scratch_.mode = mode_;
  Selection sel;
  const bool found = select_all(extra, w, sel, scratch_);
  publish_walk_counters(scratch_.stats);
  fold_stats(scratch_.stats);
  if (!found) {
    return util::Error{Errc::resource_busy,
                       "grow: extra resources unavailable for the remaining "
                       "window"};
  }
  if (auto st = apply_selection(rec, w, sel); !st) return st.error();
  refresh_resources(rec);
  return rec.result;
}

util::Status Traverser::shrink_impl(JobId job, VertexId vertex) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "shrink: unknown job"};
  }
  if (vertex >= g_.vertex_count()) {
    return util::Error{Errc::not_found, "shrink: unknown vertex"};
  }
  JobRecord& rec = it->second;
  using Family = Rebook::Family;
  Rebook& p = rebook_;
  p.start(rec);
  // Release the subtree's claims. Shared-use marks under it stay in
  // place: they cost nothing and conservatively keep the walked chain
  // non-exclusive until the job ends. The pruning filters are swapped for
  // loads re-derived from the claims that stay.
  std::vector<CommittedClaim> kept;
  for (std::size_t i = 0; i < rec.claims.size(); ++i) {
    const CommittedClaim& cc = rec.claims[i];
    if (g_.in_subtree(cc.claim.vertex, vertex)) {
      p.release(Family::claim, i, cc.claim.vertex);
    } else {
      kept.push_back(cc);
    }
  }
  if (kept.size() == rec.claims.size()) {
    return util::Error{Errc::not_found, "shrink: job holds nothing there"};
  }
  for (std::size_t i = 0; i < rec.filter_spans.size(); ++i) {
    p.release(Family::filter, i, rec.filter_spans[i].vertex);
  }
  sdfu_loads(kept, rec);
  const std::size_t loads = rec.filter_spans.size() - p.filters;
  if (auto st = rebook(rec, "shrink"); !st) return st;
  publish_sdfu(loads);
  refresh_resources(rec);
  return util::Status::ok();
}

util::Status Traverser::extend_impl(JobId job, Duration extra) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "extend: unknown job"};
  }
  if (extra <= 0) {
    return util::Error{Errc::invalid_argument, "extend: bad duration"};
  }
  JobRecord& rec = it->second;
  const TimePoint old_end = rec.result.at + rec.result.duration;
  if (old_end + extra > g_.plan_start() + g_.horizon()) {
    return util::Error{Errc::out_of_range,
                       "extend: window leaves the planning horizon"};
  }

  // Full feasibility before any mutation: every span family (schedule,
  // shared-use, pruning filter) must accept the job's summed load over the
  // extension tail [old_end, old_end + extra). All of the job's spans end
  // at old_end, so the tail carries none of its load yet and a plain
  // availability probe is exact. Booked claims are checked the way the
  // walk checks them (ancestors_admit); covered claims ride on their
  // enclosing claim, which is booked and checked here.
  struct Tail {
    std::int64_t units = 0;
    bool whole = false;
  };
  std::map<VertexId, Tail> tail;
  for (const CommittedClaim& cc : rec.claims) {
    if (cc.window.end() != old_end || cc.claim.covered) continue;
    Tail& t = tail[cc.claim.vertex];
    t.units += cc.claim.units;
    t.whole = t.whole || cc.claim.whole_instance;
  }
  std::unordered_set<VertexId> checked;
  for (const auto& [v, t] : tail) {
    if (!g_.vertex(v).schedule->avail_during(old_end, extra, t.units) ||
        !ancestors_admit(v, t.whole, old_end, extra, checked)) {
      return util::Error{Errc::resource_busy,
                         "extend: " + g_.vertex(v).path +
                             " is committed elsewhere after the job ends"};
    }
  }
  std::map<VertexId, std::int64_t> shared_tail;
  for (auto& [v, id] : rec.shared_spans) {
    const planner::Span* s = g_.vertex(v).x_checker->find_span(id);
    FLUXION_CHECK(s != nullptr, "extend: shared-use span vanished");
    if (s->last == old_end) shared_tail[v] += 1;
  }
  for (const auto& [v, walkers] : shared_tail) {
    if (!g_.vertex(v).x_checker->avail_during(old_end, extra, walkers)) {
      return util::Error{Errc::resource_busy,
                         "extend: shared-use capacity exhausted on " +
                             g_.vertex(v).path};
    }
  }
  std::map<VertexId, std::vector<std::int64_t>> filter_tail;
  for (const FilterSpan& fs : rec.filter_spans) {
    if (fs.window.end() != old_end) continue;
    auto& counts = filter_tail[fs.vertex];
    counts.resize(fs.counts.size(), 0);
    for (std::size_t i = 0; i < fs.counts.size(); ++i) counts[i] += fs.counts[i];
  }
  for (const auto& [v, counts] : filter_tail) {
    if (!g_.vertex(v).filter->avail_during(old_end, extra, counts)) {
      return util::Error{Errc::resource_busy,
                         "extend: pruning filter rejects the extension tail "
                         "at " + g_.vertex(v).path};
    }
  }

  // Commit: swap each span that reaches the job's end for one `extra`
  // longer (nothing can grab the vacated window in between: the engine is
  // single-threaded). Covered claims swap too, which only moves their
  // window along with the claim that books them.
  using Family = Rebook::Family;
  Rebook& p = rebook_;
  p.start(rec);
  for (std::size_t i = 0; i < p.claims; ++i) {
    CommittedClaim cc = rec.claims[i];
    if (cc.window.end() != old_end) continue;
    p.release(Family::claim, i, cc.claim.vertex);
    cc.window.duration += extra;
    p.add(rec, cc);
  }
  for (std::size_t i = 0; i < p.shared; ++i) {
    const auto [v, id] = rec.shared_spans[i];
    const planner::Span* s = g_.vertex(v).x_checker->find_span(id);
    FLUXION_CHECK(s != nullptr, "extend: shared-use span vanished mid-commit");
    if (s->last != old_end) continue;
    p.release(Family::shared, i, v, {s->start, s->last - s->start});
    p.add(rec, v, {s->start, s->last - s->start + extra});
  }
  for (std::size_t i = 0; i < p.filters; ++i) {
    FilterSpan fs = rec.filter_spans[i];
    if (fs.window.end() != old_end) continue;
    p.release(Family::filter, i, fs.vertex);
    fs.window.duration += extra;
    p.add(rec, std::move(fs));
  }
  if (auto st = rebook(rec, "extend"); !st) return st;
  // Bookkeeping only after the last fallible step, so a failure above
  // leaves duration and release_times_ exactly as they were.
  rec.result.duration += extra;
  if (auto rt = release_times_.find(old_end); rt != release_times_.end()) {
    if (--rt->second == 0) release_times_.erase(rt);
  }
  release_times_[old_end + extra] += 1;
  return util::Status::ok();
}

std::vector<std::int64_t> Traverser::root_filter_counts(
    const jobspec::Jobspec& js) const {
  const planner::PlannerMulti* filter = g_.vertex(root_).filter.get();
  if (filter == nullptr) return {};
  std::vector<std::int64_t> counts(filter->resource_count(), 0);
  bool any = false;
  // find_type, not intern_type: the probe path must not mutate the
  // interner, and a type the graph never saw has no filter slot.
  auto walk = [&](auto& self, const jobspec::Resource& r,
                  std::int64_t mult) -> void {
    const std::int64_t total = mult * r.count;
    if (!r.is_slot()) {
      if (auto t = g_.find_type(r.type)) {
        if (auto idx = filter->index_of_id(*t)) {
          counts[*idx] += total;
          any = true;
        }
      }
    }
    for (const jobspec::Resource& c : r.with) self(self, c, total);
  };
  for (const jobspec::Resource& r : js.resources) walk(walk, r, 1);
  if (!any) counts.clear();
  return counts;
}

util::Expected<TimePoint> Traverser::next_candidate_time(
    TimePoint after, Duration duration,
    const std::vector<std::int64_t>& root_counts) const {
  // Fast-forward with the root pruning filter when available: the earliest
  // time the *aggregate* demand fits is a lower bound for a full match.
  if (root_counts.empty()) return after;
  return g_.vertex(root_).filter->avail_time_first(after, duration,
                                                   root_counts);
}

Traverser::Probe Traverser::probe(const jobspec::Jobspec& js, MatchOp op,
                                  TimePoint now, JobId job,
                                  MatchScratch& sc) const {
  return probe(js, op, now, job, sc, mode_);
}

Traverser::Probe Traverser::probe(const jobspec::Jobspec& js, MatchOp op,
                                  TimePoint now, JobId job, MatchScratch& sc,
                                  TraversalMode mode) const {
  Probe p;
  p.job = job;
  p.op = op;
  p.now = now;
  p.epoch = mutation_epoch_;
  sc.mode = mode;
  p.t0 = std::chrono::steady_clock::now();

  [&] {
    if (auto st = js.validate(); !st) {
      p.error = st.error();
      return;
    }
    if (jobs_.contains(job) && op != MatchOp::satisfiability) {
      p.error = util::Error{Errc::exists, "match: job id already active"};
      return;
    }
    p.ran = true;
    sc.stats = TraverserStats{};
    sc.rejections.enabled = introspect_;
    if (sc.rejections.enabled) sc.rejections.reset(g_.type_count());
    const Duration d = js.duration;
    const TimePoint plan_end = g_.plan_start() + g_.horizon();

    if (op == MatchOp::satisfiability) {
      // Probe an idle instant: after every committed span has ended.
      TimePoint t = now;
      if (!release_times_.empty()) {
        t = std::max(t, release_times_.rbegin()->first);
      }
      if (t + d > plan_end) {
        p.error = util::Error{Errc::out_of_range,
                              "satisfiability: probe window leaves the "
                              "horizon"};
        return;
      }
      if (!select_all(js, {t, d}, p.sel, sc)) {
        p.error = util::Error{Errc::unsatisfiable,
                              "satisfiability: request can never be matched"};
        return;
      }
      p.ok = true;
      p.window = {t, d};
      return;
    }

    if (op == MatchOp::allocate ||
        op == MatchOp::allocate_with_satisfiability) {
      if (now + d > plan_end) {
        p.error = util::Error{Errc::out_of_range,
                              "match: window leaves the planning horizon"};
        return;
      }
      if (select_all(js, {now, d}, p.sel, sc)) {
        p.ok = true;
        p.window = {now, d};
        return;
      }
      if (op == MatchOp::allocate_with_satisfiability) {
        // Distinguish "busy now" from "can never run": probe an idle
        // instant (what flux-sched's allocate_with_satisfiability reports).
        TimePoint idle = now;
        if (!release_times_.empty()) {
          idle = std::max(idle, release_times_.rbegin()->first);
        }
        Selection idle_sel;
        if (idle + d > plan_end || !select_all(js, {idle, d}, idle_sel, sc)) {
          p.error = util::Error{Errc::unsatisfiable,
                                "match: request can never be satisfied"};
          return;
        }
      }
      p.error = util::Error{Errc::resource_busy,
                            "match: resources busy at the requested time"};
      return;
    }

    // ALLOCATE_ORELSE_RESERVE: resources only free up when a span ends, so
    // feasible starts are `now` or a future release time; the root pruning
    // filter fast-forwards over times where even the aggregate cannot fit.
    const std::vector<std::int64_t> root_counts = root_filter_counts(js);
    TimePoint t = now;
    while (true) {
      auto jumped = next_candidate_time(t, d, root_counts);
      if (!jumped) {
        // Aggregate demand can never fit; distinguish unsatisfiable.
        p.error = jumped.error();
        return;
      }
      t = *jumped;
      if (t + d > plan_end) {
        p.error = util::Error{Errc::resource_busy,
                              "match: no feasible window within the horizon"};
        return;
      }
      p.sel = Selection{};  // discard the failed attempt's partial claims
      if (select_all(js, {t, d}, p.sel, sc)) {
        p.ok = true;
        p.window = {t, d};
        return;
      }
      auto it = release_times_.upper_bound(t);
      if (it == release_times_.end()) {
        p.error = util::Error{Errc::unsatisfiable,
                              "match: request cannot be satisfied even on "
                              "an idle system"};
        return;
      }
      t = it->first;
    }
  }();

  if (p.ran) {
    p.delta = sc.stats;
    publish_walk_counters(sc.stats);
  }
  if (p.ran && sc.rejections.enabled) {
    if (!p.ok && op != MatchOp::satisfiability &&
        sc.rejections.earliest_hint < 0) {
      // Earliest-feasible hint for a blocked request: the root pruning
      // filter's aggregate lower bound (read-only, like the rest of the
      // probe). now itself means "aggregate fits but the shape does not";
      // the next release time is then the earliest instant anything can
      // change.
      if (auto jumped = next_candidate_time(now, js.duration,
                                            root_filter_counts(js))) {
        TimePoint hint = *jumped;
        if (hint <= now) {
          auto it = release_times_.upper_bound(now);
          hint = it != release_times_.end() ? it->first : -1;
        }
        sc.rejections.earliest_hint = hint;
      }
    }
    p.rejections = sc.rejections;
  }
  return p;
}

util::Expected<MatchResult> Traverser::restore_impl(
    const MatchResult& allocation) {
  if (jobs_.contains(allocation.job)) {
    return util::Error{Errc::exists, "restore: job id already active"};
  }
  if (allocation.duration <= 0) {
    return util::Error{Errc::invalid_argument, "restore: bad duration"};
  }
  const util::TimeWindow w{allocation.at, allocation.duration};
  // Rebuild a Selection equivalent to the original commit: exclusive
  // whole-vertex claims keep their SDFU subtree semantics; everything
  // else is a quantity claim. Claims under a restored exclusive ancestor
  // are skipped for filter updates exactly like a fresh match, and those
  // it covers (covered_under) get no span and no planner check.
  Selection sel;
  std::vector<VertexId> exclusive_roots;
  for (const ResourceUnit& ru : allocation.resources) {
    if (ru.vertex >= g_.vertex_count() || !g_.vertex(ru.vertex).alive) {
      return util::Error{Errc::not_found, "restore: unknown vertex"};
    }
    if (g_.vertex(ru.vertex).status != graph::ResourceStatus::up) {
      return util::Error{Errc::resource_busy,
                         "restore: " + g_.vertex(ru.vertex).path + " is " +
                             graph::status_name(g_.vertex(ru.vertex).status)};
    }
    if (ru.units <= 0 || ru.units > g_.vertex(ru.vertex).size) {
      return util::Error{Errc::invalid_argument, "restore: bad unit count"};
    }
    if (ru.exclusive && ru.units == g_.vertex(ru.vertex).size) {
      exclusive_roots.push_back(ru.vertex);
    }
  }
  auto held = [&](VertexId a) {
    return std::find(exclusive_roots.begin(), exclusive_roots.end(), a) !=
           exclusive_roots.end();
  };
  auto under_exclusive_root = [&](VertexId v) {
    for (VertexId a = g_.vertex(v).containment_parent;
         a != graph::kInvalidVertex; a = g_.vertex(a).containment_parent) {
      if (held(a)) return true;
    }
    return false;
  };
  std::unordered_set<VertexId> checked;
  for (const ResourceUnit& ru : allocation.resources) {
    const graph::Vertex& vx = g_.vertex(ru.vertex);
    const bool whole = ru.exclusive && ru.units == vx.size;
    const bool under = under_exclusive_root(ru.vertex);
    const bool covered = under && covered_under(ru.vertex, held);
    if (!covered &&
        (!vx.schedule->avail_during(w.start, w.duration, ru.units) ||
         !ancestors_admit(ru.vertex, whole, w.start, w.duration, checked))) {
      return util::Error{Errc::resource_busy,
                         "restore: claim no longer fits on " + vx.path};
    }
    sel.push_claim(
        Claim{ru.vertex, ru.units, ru.exclusive, whole, under, covered});
    // Recreate the shared-use marks of the original walk: every
    // containment ancestor below the root and outside the job's own
    // exclusive subtrees was traversed shared, and must again repel
    // other jobs' exclusive claims. (A conservative superset of the
    // original pass-through chain for multi-subsystem matches.) The root
    // is left unmarked, as walks leave it; see exclusive_reason.
    if (!under) {
      for (VertexId a = vx.containment_parent;
           a != graph::kInvalidVertex && a != root_;
           a = g_.vertex(a).containment_parent) {
        sel.mark_shared(a);
      }
    }
  }

  JobRecord rec;
  rec.result = allocation;
  rec.result.reserved = false;
  if (auto st = apply_selection(rec, w, sel); !st) return st.error();
  refresh_resources(rec);
  const MatchResult result = rec.result;
  jobs_.emplace(allocation.job, std::move(rec));
  release_times_[w.end()] += 1;
  return result;
}

util::Status Traverser::cancel_impl(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "cancel: unknown job"};
  }
  JobRecord& rec = it->second;
  // Best-effort: even a corrupted record is always dropped from the
  // bookkeeping; the release status reports what could not be undone.
  util::Status released = release_record(rec);
  const TimePoint end = rec.result.at + rec.result.duration;
  if (auto rt = release_times_.find(end); rt != release_times_.end()) {
    if (--rt->second == 0) release_times_.erase(rt);
  }
  jobs_.erase(it);
  return released;
}

// --- public entry points: mutation body + optional post-mutation audit ------

std::vector<std::pair<std::string, std::string>> Traverser::explain_args()
    const {
  std::vector<std::pair<std::string, std::string>> args;
  const RejectionProfile& rp = last_rejections_;
  util::InternId dom = 0;
  if (rp.dominant(dom)) {
    args.emplace_back("dominant", obs::event_str(g_.type_name(dom)));
  }
  for (RejectReason r :
       {RejectReason::filter, RejectReason::status, RejectReason::busy,
        RejectReason::exclusivity, RejectReason::requirements,
        RejectReason::postorder}) {
    if (const std::uint64_t n = rp.total(r); n != 0) {
      args.emplace_back(reject_reason_name(r), std::to_string(n));
    }
  }
  if (rp.earliest_hint >= 0) {
    args.emplace_back("hint", std::to_string(rp.earliest_hint));
  }
  return args;
}

void Traverser::fold_stats(const TraverserStats& d) noexcept {
  stats_.visits += d.visits;
  stats_.last_visits = d.last_visits;
  stats_.pruned += d.pruned;
  stats_.status_pruned += d.status_pruned;
  stats_.match_attempts += d.match_attempts;
  stats_.first_match_stops += d.first_match_stops;
  stats_.postorder_rejects += d.postorder_rejects;
}

util::Expected<MatchResult> Traverser::commit(Probe&& p) {
  // Stats fold exactly once per *consumed* probe; a probe that is never
  // committed leaves TraverserStats alone.
  if (p.ran) fold_stats(p.delta);
  // Same contract for attribution: only the consumed probe's profile is
  // kept, so explain surfaces describe the decision that actually
  // happened.
  if (p.ran && introspect_) last_rejections_ = std::move(p.rejections);

  auto finish = [&](util::Expected<MatchResult> r)
      -> util::Expected<MatchResult> {
    const bool timed = obs::enabled() || obs::trace().enabled();
    if (timed) {
      // One op-accounting record per consumed probe, spanning probe start
      // to commit end.
      const std::int64_t dur = std::chrono::duration_cast<
          std::chrono::microseconds>(std::chrono::steady_clock::now() - p.t0)
                                   .count();
      const std::int64_t t0 = obs::trace().now_us() - dur;
      const obs::Op o = to_obs_op(p.op);
      if (obs::enabled()) {
        auto& om = obs::monitor().op(o);
        om.calls.inc();
        if (!r) om.failures.inc();
        om.latency_us.add(static_cast<double>(dur));
      }
      obs::trace().wall_span(obs::op_name(o), t0, dur,
                             {{"job", std::to_string(p.job)},
                              {"ok", r ? "true" : "false"}});
    }
    if (audit_enabled_) {
      if (auto st = run_audit("match"); !st) return st.error();
    }
    return r;
  };

  if (!p.ok) return finish(p.error);
  if (p.op == MatchOp::satisfiability) {
    // Nothing to commit and no epoch movement: the probe's answer stands
    // regardless of state changes since (it probed an idle system).
    MatchResult r;
    r.job = p.job;
    r.at = p.window.start;
    r.duration = p.window.duration;
    return finish(r);
  }
  // A probe is committable only against the exact state it saw.
  if (p.epoch != mutation_epoch_) {
    return finish(util::Error{Errc::resource_busy,
                              "commit: probe is stale (scheduler state "
                              "changed since probe time)"});
  }
  if (jobs_.contains(p.job)) {
    return finish(util::Error{Errc::exists, "match: job id already active"});
  }
  auto r = commit_selection(p.job, p.window, p.now, p.sel);
  // Failed commits roll back completely, so only successes (committed
  // spans + SDFU filter updates) move the epoch.
  if (r) ++mutation_epoch_;
  return finish(std::move(r));
}

util::Expected<MatchResult> Traverser::match(const jobspec::Jobspec& js,
                                             MatchOp op, TimePoint now,
                                             JobId job) {
  // Probe into the member scratch, then commit.
  return commit(probe(js, op, now, job, scratch_, mode_));
}

util::Expected<MatchResult> Traverser::match(const jobspec::Jobspec& js,
                                             MatchOp op, TimePoint now,
                                             JobId job, TraversalMode mode) {
  return commit(probe(js, op, now, job, scratch_, mode));
}

util::Status Traverser::cancel(JobId job) {
  const bool timed = obs::enabled() || obs::trace().enabled();
  const std::int64_t t0 = timed ? obs::trace().now_us() : 0;
  // Cancel is best-effort once it finds the job: spans may be released
  // even when the call reports corruption (Errc::internal), so those
  // attempts bump the epoch. A not_found attempt touched nothing —
  // bumping would evict still-valid cached verdicts for no reason.
  auto r = cancel_impl(job);
  if (r || r.error().code == Errc::internal) ++mutation_epoch_;
  if (timed) {
    const std::int64_t dur = obs::trace().now_us() - t0;
    if (obs::enabled()) {
      auto& om = obs::monitor().op(obs::Op::cancel);
      om.calls.inc();
      if (!r) om.failures.inc();
      om.latency_us.add(static_cast<double>(dur));
    }
    obs::trace().wall_span(obs::op_name(obs::Op::cancel), t0, dur,
                           {{"job", std::to_string(job)},
                            {"ok", r ? "true" : "false"}});
  }
  if (audit_enabled_) {
    if (auto st = run_audit("cancel"); !st) return st;
  }
  return r;
}

util::Expected<MatchResult> Traverser::restore(const MatchResult& allocation) {
  auto r = restore_impl(allocation);
  if (r) ++mutation_epoch_;
  if (audit_enabled_) {
    if (auto st = run_audit("restore"); !st) return st.error();
  }
  return r;
}

util::Expected<MatchResult> Traverser::grow(JobId job,
                                            const jobspec::Jobspec& extra,
                                            TimePoint now) {
  auto r = grow_impl(job, extra, now);
  if (r) ++mutation_epoch_;
  if (audit_enabled_) {
    if (auto st = run_audit("grow"); !st) return st.error();
  }
  return r;
}

util::Status Traverser::shrink(JobId job, VertexId vertex) {
  // Shrink and extend restore prior state on clean failures
  // (not_found / resource_busy); only their best-effort repair paths can
  // leave state moved, and those report Errc::internal. Bump the epoch
  // exactly for success-or-internal so failed attempts stop evicting
  // still-valid cache entries.
  auto r = shrink_impl(job, vertex);
  if (r || r.error().code == Errc::internal) ++mutation_epoch_;
  if (audit_enabled_) {
    if (auto st = run_audit("shrink"); !st) return st;
  }
  return r;
}

util::Status Traverser::extend(JobId job, Duration extra) {
  auto r = extend_impl(job, extra);
  if (r || r.error().code == Errc::internal) ++mutation_epoch_;
  if (audit_enabled_) {
    if (auto st = run_audit("extend"); !st) return st;
  }
  return r;
}

std::vector<JobId> Traverser::jobs_on_subtree(VertexId vertex) const {
  std::vector<JobId> out;
  if (vertex >= g_.vertex_count()) return out;
  for (const auto& [id, rec] : jobs_) {
    for (const CommittedClaim& cc : rec.claims) {
      if (g_.in_subtree(cc.claim.vertex, vertex)) {
        out.push_back(id);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Traverser::audit() const {
  for (VertexId v = 0; v < g_.vertex_count(); ++v) {
    const graph::Vertex& vx = g_.vertex(v);
    if (!vx.alive) continue;
    if (vx.schedule != nullptr && !vx.schedule->validate()) return false;
    if (vx.x_checker != nullptr && !vx.x_checker->validate()) return false;
    if (vx.filter != nullptr && !vx.filter->validate()) return false;
  }
  return verify_claims() && verify_filters();
}

bool Traverser::verify_claims() const {
  // Recounted from the job records alone, sharing no code with the
  // commit path or the walk's checks: every schedule span belongs to one
  // booked claim, every covered-claim count matches, every covered claim
  // is booked by an exclusive whole-instance claim ("hold") of its own
  // job and window above it, never the root's, and no job claims a
  // vertex another job holds over an overlapping window. A hold reaches
  // its vertex and what lies below it through single-parent vertices.
  std::vector<std::size_t> booked(g_.vertex_count(), 0);
  std::vector<std::int32_t> covered(g_.vertex_count(), 0);
  std::unordered_map<VertexId, std::vector<std::pair<JobId, util::TimeWindow>>>
      holds;
  for (const auto& [id, rec] : jobs_) {
    for (const CommittedClaim& cc : rec.claims) {
      if (!cc.claim.covered && cc.claim.exclusive &&
          cc.claim.whole_instance) {
        holds[cc.claim.vertex].emplace_back(id, cc.window);
      }
    }
  }
  for (const auto& [id, rec] : jobs_) {
    std::unordered_set<VertexId> own;
    for (const CommittedClaim& cc : rec.claims) {
      if (!cc.claim.covered) own.insert(cc.claim.vertex);
    }
    for (const CommittedClaim& cc : rec.claims) {
      const VertexId v = cc.claim.vertex;
      if (!cc.claim.covered) {
        ++booked[v];
        if (g_.vertex(v).schedule->find_span(cc.span) == nullptr) return false;
      } else {
        ++covered[v];
        // No span of its own job on a covered vertex.
        if (cc.span != planner::kInvalidSpan || own.contains(v)) return false;
      }
      bool booking = !cc.claim.covered;
      for (VertexId a = v;; a = g_.vertex(a).containment_parent) {
        if (auto it = holds.find(a); it != holds.end()) {
          for (const auto& [holder, w] : it->second) {
            if (holder != id && w.overlaps(cc.window)) return false;
            booking = booking || (holder == id && a != root_ &&
                                  w.start == cc.window.start &&
                                  w.duration == cc.window.duration);
          }
        }
        if (g_.vertex(a).contains_in != 1 ||
            g_.vertex(a).containment_parent == graph::kInvalidVertex) {
          break;
        }
      }
      if (!booking) return false;
    }
  }
  for (VertexId v = 0; v < g_.vertex_count(); ++v) {
    const graph::Vertex& vx = g_.vertex(v);
    if (vx.schedule->span_count() != booked[v] ||
        vx.covered_claims != covered[v]) {
      return false;
    }
  }
  return true;
}

util::Status Traverser::run_audit(const char* op) const {
  if (!audit()) {
    return util::internal_error(std::string("post-mutation audit failed "
                                            "after ") + op);
  }
  return util::Status::ok();
}

bool Traverser::fault_fires(const char* op, const char* step) {
  if (fault_point_.empty()) return false;
  const std::string_view point = fault_point_;
  const std::string_view o = op;
  if (!point.starts_with(o) || point.size() <= o.size() ||
      point[o.size()] != ':' || point.substr(o.size() + 1) != step) {
    return false;
  }
  fault_point_.clear();
  return true;
}

const MatchResult* Traverser::find_job(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second.result;
}

bool Traverser::verify_filters() const {
  // Recount every filter's expected usage from job claims, then compare
  // availability at each claim boundary instant.
  std::vector<TimePoint> probes;
  for (const auto& [id, rec] : jobs_) {
    probes.push_back(rec.result.at);
    probes.push_back(rec.result.at + rec.result.duration - 1);
    for (const CommittedClaim& cc : rec.claims) {
      probes.push_back(cc.window.start);
      probes.push_back(cc.window.end() - 1);
    }
  }
  for (VertexId fid = 0; fid < g_.vertex_count(); ++fid) {
    const planner::PlannerMulti* fv = g_.vertex(fid).filter.get();
    if (!g_.vertex(fid).alive || fv == nullptr) continue;
    for (std::size_t i = 0; i < fv->resource_count(); ++i) {
      const planner::Planner& p = fv->planner_at(i);
      const auto type = g_.find_type(p.resource_type());
      if (!type) return false;
      for (TimePoint t : probes) {
        if (t < p.base_time() || t >= p.plan_end()) continue;
        std::int64_t used = 0;
        for (const auto& [id, rec] : jobs_) {
          for (const CommittedClaim& cc : rec.claims) {
            if (!cc.window.contains(t)) continue;
            const Claim& c = cc.claim;
            if (c.under_exclusive) continue;
            if (!g_.in_subtree(c.vertex, fid)) continue;
            if (c.whole_instance) {
              const auto counts = g_.subtree_counts(c.vertex);
              if (auto it2 = counts.find(*type); it2 != counts.end()) {
                used += it2->second;
              }
            } else if (g_.vertex(c.vertex).type == *type) {
              used += c.units;
            }
          }
        }
        auto avail = p.avail_at(t);
        if (!avail || *avail != p.total() - used) return false;
      }
    }
  }
  return true;
}

}  // namespace fluxion::traverser
