#include "traverser/traverser.hpp"

#include <algorithm>

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
  const std::size_t claims_mark = rec.claims.size();
  const std::size_t shared_mark = rec.shared_spans.size();
  const std::size_t filter_mark = rec.filter_spans.size();
  auto abort = [&](const char* what) -> util::Error {
    bool rollback_ok = true;
    while (rec.claims.size() > claims_mark) {
      rollback_ok &= static_cast<bool>(unbook(rec.claims.back()));
      rec.claims.pop_back();
    }
    while (rec.shared_spans.size() > shared_mark) {
      auto& [v, id] = rec.shared_spans.back();
      rollback_ok &= static_cast<bool>(g_.vertex(v).x_checker->rem_span(id));
      rec.shared_spans.pop_back();
    }
    while (rec.filter_spans.size() > filter_mark) {
      auto& fs = rec.filter_spans.back();
      rollback_ok &=
          static_cast<bool>(g_.vertex(fs.vertex).filter->rem_span(fs.span));
      rec.filter_spans.pop_back();
    }
    return util::internal_error(
        std::string("apply_selection failed: ") + what +
        (rollback_ok ? "" : "; rollback incomplete"));
  };

  // Only booked claims get a schedule span; a covered claim is booked by
  // its enclosing exclusive claim's span and only counted on its vertex.
  for (const Claim& c : sel.claims) {
    if (c.covered) {
      ++g_.vertex(c.vertex).covered_claims;
      rec.claims.push_back({c, w, planner::kInvalidSpan});
      continue;
    }
    auto span = add_span_checked(*g_.vertex(c.vertex).schedule, "apply:claim",
                                 w.start, w.duration, c.units);
    if (!span) return abort("schedule span rejected");
    rec.claims.push_back({c, w, *span});
  }
  for (VertexId v : sel.shared_marks) {
    auto span = add_span_checked(*g_.vertex(v).x_checker, "apply:shared",
                                 w.start, w.duration, 1);
    if (!span) return abort("shared-use span rejected");
    rec.shared_spans.emplace_back(v, *span);
  }

  // Scheduler-Driven Filter Updates (paper §3.4): only the ancestors of
  // selected vertices are touched, with the aggregate amounts the
  // selection consumed beneath each of them.
  std::map<VertexId, std::vector<std::int64_t>> filter_updates;
  for (const Claim& c : sel.claims) {
    if (c.under_exclusive) continue;  // covered by the enclosing instance
    std::map<util::InternId, std::int64_t> contribution;
    if (c.whole_instance) {
      contribution = g_.subtree_counts(c.vertex);
    } else {
      contribution[g_.vertex(c.vertex).type] = c.units;
    }
    for (VertexId a = c.vertex; a != graph::kInvalidVertex;
         a = g_.vertex(a).containment_parent) {
      const planner::PlannerMulti* filter = g_.vertex(a).filter.get();
      if (filter == nullptr) continue;
      auto& counts = filter_updates[a];
      counts.resize(filter->resource_count(), 0);
      for (const auto& [type, amount] : contribution) {
        if (auto idx = filter->index_of_id(type)) counts[*idx] += amount;
      }
    }
  }
  for (auto& [v, counts] : filter_updates) {
    if (std::all_of(counts.begin(), counts.end(),
                    [](std::int64_t c) { return c == 0; })) {
      continue;
    }
    auto span =
        add_multi_checked(*g_.vertex(v).filter, "apply:filter", w.start,
                          w.duration, counts);
    if (!span) return abort("pruning filter span rejected");
    rec.filter_spans.push_back({v, *span, w, counts});
  }
  if (obs::enabled()) {
    auto& m = obs::monitor();
    const std::size_t added = rec.filter_spans.size() - filter_mark;
    m.sdfu_commits.inc();
    m.sdfu_spans.inc(added);
    m.sdfu_spans_per_commit.add(static_cast<double>(added));
  }
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
  const std::string& prefix = g_.vertex(vertex).path;
  auto within = [&](VertexId v) {
    const std::string& p = g_.vertex(v).path;
    return p == prefix || (p.size() > prefix.size() &&
                           p.compare(0, prefix.size(), prefix) == 0 &&
                           p[prefix.size()] == '/');
  };
  std::vector<std::size_t> drop_idx;
  for (std::size_t i = 0; i < rec.claims.size(); ++i) {
    if (within(rec.claims[i].claim.vertex)) drop_idx.push_back(i);
  }
  if (drop_idx.empty()) {
    return util::Error{Errc::not_found, "shrink: job holds nothing there"};
  }
  auto readd = [&](CommittedClaim& cc) {
    auto back = g_.vertex(cc.claim.vertex)
                    .schedule->add_span(cc.window.start, cc.window.duration,
                                        cc.claim.units);
    cc.span = back ? *back : planner::kInvalidSpan;
    return static_cast<bool>(back);
  };
  // Release the subtree's schedule spans; on a failed removal, restore the
  // ones already released and report corruption. A covered claim has no
  // span: its enclosing claim is either dropped too (it lies in the same
  // subtree) or keeps the vertex booked.
  std::vector<std::size_t> removed;
  for (std::size_t i : drop_idx) {
    CommittedClaim& cc = rec.claims[i];
    if (cc.claim.covered) continue;
    auto st = fault_fires("shrink:rem")
                  ? util::Status(util::internal_error("shrink: injected fault"))
                  : g_.vertex(cc.claim.vertex).schedule->rem_span(cc.span);
    if (!st) {
      bool rollback_ok = true;
      for (std::size_t j : removed) rollback_ok &= readd(rec.claims[j]);
      return util::internal_error(
          "shrink: releasing " + g_.vertex(cc.claim.vertex).path +
          " failed: " + st.error().message +
          (rollback_ok ? "" : "; rollback incomplete"));
    }
    removed.push_back(i);
  }
  std::vector<CommittedClaim> original = rec.claims;
  std::vector<CommittedClaim> kept;
  kept.reserve(rec.claims.size() - drop_idx.size());
  for (std::size_t i = 0; i < rec.claims.size(); ++i) {
    if (!within(rec.claims[i].claim.vertex)) kept.push_back(rec.claims[i]);
  }
  rec.claims = std::move(kept);
  // Shared-use marks under the released subtree stay in place: they cost
  // nothing and conservatively keep the walked chain non-exclusive until
  // the job ends.
  if (auto st = rebuild_filter_spans(rec); !st) {
    // rebuild restored the prior filter spans; restore the claims too.
    rec.claims = std::move(original);
    bool rollback_ok = true;
    for (std::size_t i : removed) rollback_ok &= readd(rec.claims[i]);
    if (!rollback_ok) {
      return util::internal_error("shrink: " + st.error().message +
                                  "; rollback incomplete");
    }
    return st;
  }
  for (std::size_t i : drop_idx) {
    if (original[i].claim.covered) {
      --g_.vertex(original[i].claim.vertex).covered_claims;
    }
  }
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

  // Commit: replace each end-reaching span with a longer one (nothing can
  // grab the vacated window in between — the engine is single-threaded).
  // A failing swap means the state diverged from the feasibility probe:
  // undo every completed swap and report corruption.
  std::vector<CommittedClaim*> swapped_claims;
  auto rollback_claims = [&]() {
    bool ok = true;
    for (CommittedClaim* cc : swapped_claims) {
      planner::Planner& p = *g_.vertex(cc->claim.vertex).schedule;
      ok &= static_cast<bool>(p.rem_span(cc->span));
      cc->window.duration -= extra;
      auto back = p.add_span(cc->window.start, cc->window.duration,
                             cc->claim.units);
      cc->span = back ? *back : planner::kInvalidSpan;
      ok &= static_cast<bool>(back);
    }
    return ok;
  };
  for (CommittedClaim& cc : rec.claims) {
    if (cc.window.end() != old_end || cc.claim.covered) continue;
    planner::Planner& p = *g_.vertex(cc.claim.vertex).schedule;
    auto st = p.rem_span(cc.span);
    auto span = st ? add_span_checked(p, "extend:claim", cc.window.start,
                                      cc.window.duration + extra,
                                      cc.claim.units)
                   : util::Expected<planner::SpanId>(st.error());
    if (!span) {
      bool rollback_ok = true;
      if (st) {  // old span removed but not replaced: put it back
        auto back = p.add_span(cc.window.start, cc.window.duration,
                               cc.claim.units);
        cc.span = back ? *back : planner::kInvalidSpan;
        rollback_ok = static_cast<bool>(back);
      }
      rollback_ok &= rollback_claims();
      return util::internal_error(
          "extend: schedule span swap failed on " + g_.vertex(cc.claim.vertex).path +
          ": " + span.error().message +
          (rollback_ok ? "" : "; rollback incomplete"));
    }
    cc.window.duration += extra;
    cc.span = *span;
    swapped_claims.push_back(&cc);
  }
  struct SharedSwap {
    std::pair<VertexId, planner::SpanId>* entry;
    TimePoint start;
    Duration old_d;
  };
  std::vector<SharedSwap> swapped_shared;
  auto rollback_shared = [&]() {
    bool ok = true;
    for (const SharedSwap& sw : swapped_shared) {
      planner::Planner& x = *g_.vertex(sw.entry->first).x_checker;
      ok &= static_cast<bool>(x.rem_span(sw.entry->second));
      auto back = x.add_span(sw.start, sw.old_d, 1);
      sw.entry->second = back ? *back : planner::kInvalidSpan;
      ok &= static_cast<bool>(back);
    }
    return ok;
  };
  for (auto& entry : rec.shared_spans) {
    planner::Planner& x = *g_.vertex(entry.first).x_checker;
    const planner::Span* s = x.find_span(entry.second);
    FLUXION_CHECK(s != nullptr, "extend: shared-use span vanished mid-commit");
    if (s->last != old_end) continue;
    const TimePoint start = s->start;
    const Duration old_d = s->last - s->start;
    auto st = x.rem_span(entry.second);
    auto span = st ? add_span_checked(x, "extend:shared", start,
                                      old_d + extra, 1)
                   : util::Expected<planner::SpanId>(st.error());
    if (!span) {
      bool rollback_ok = true;
      if (st) {
        auto back = x.add_span(start, old_d, 1);
        entry.second = back ? *back : planner::kInvalidSpan;
        rollback_ok = static_cast<bool>(back);
      }
      rollback_ok &= rollback_shared();
      rollback_ok &= rollback_claims();
      return util::internal_error(
          "extend: shared-use span swap failed on " + g_.vertex(entry.first).path +
          ": " + span.error().message +
          (rollback_ok ? "" : "; rollback incomplete"));
    }
    entry.second = *span;
    swapped_shared.push_back({&entry, start, old_d});
  }
  std::vector<FilterSpan*> swapped_filters;
  auto rollback_filters = [&]() {
    bool ok = true;
    for (FilterSpan* fs : swapped_filters) {
      planner::PlannerMulti& f = *g_.vertex(fs->vertex).filter;
      ok &= static_cast<bool>(f.rem_span(fs->span));
      fs->window.duration -= extra;
      auto back = f.add_span(fs->window.start, fs->window.duration,
                             fs->counts);
      fs->span = back ? *back : planner::kInvalidSpan;
      ok &= static_cast<bool>(back);
    }
    return ok;
  };
  for (FilterSpan& fs : rec.filter_spans) {
    if (fs.window.end() != old_end) continue;
    planner::PlannerMulti& f = *g_.vertex(fs.vertex).filter;
    auto st = f.rem_span(fs.span);
    auto span = st ? add_multi_checked(f, "extend:filter", fs.window.start,
                                       fs.window.duration + extra, fs.counts)
                   : util::Expected<planner::SpanId>(st.error());
    if (!span) {
      bool rollback_ok = true;
      if (st) {
        auto back = f.add_span(fs.window.start, fs.window.duration, fs.counts);
        fs.span = back ? *back : planner::kInvalidSpan;
        rollback_ok = static_cast<bool>(back);
      }
      rollback_ok &= rollback_filters();
      rollback_ok &= rollback_shared();
      rollback_ok &= rollback_claims();
      return util::internal_error(
          "extend: pruning filter span swap failed on " +
          g_.vertex(fs.vertex).path + ": " + span.error().message +
          (rollback_ok ? "" : "; rollback incomplete"));
    }
    fs.window.duration += extra;
    fs.span = *span;
    swapped_filters.push_back(&fs);
  }

  // Bookkeeping only after the last fallible step, so a failure above
  // leaves duration and release_times_ exactly as they were. Covered
  // claims keep the window of the claim that books them.
  for (CommittedClaim& cc : rec.claims) {
    if (cc.claim.covered && cc.window.end() == old_end) {
      cc.window.duration += extra;
    }
  }
  rec.result.duration += extra;
  if (auto rt = release_times_.find(old_end); rt != release_times_.end()) {
    if (--rt->second == 0) release_times_.erase(rt);
  }
  release_times_[old_end + extra] += 1;
  return util::Status::ok();
}

util::Status Traverser::rebuild_filter_spans(JobRecord& rec) {
  // Re-derive per (ancestor, window) — grow extensions may have distinct
  // windows, so aggregate per pair.
  std::map<std::pair<VertexId, TimePoint>,
           std::pair<util::TimeWindow, std::vector<std::int64_t>>>
      updates;
  for (const CommittedClaim& cc : rec.claims) {
    if (cc.claim.under_exclusive) continue;
    std::map<util::InternId, std::int64_t> contribution;
    if (cc.claim.whole_instance) {
      contribution = g_.subtree_counts(cc.claim.vertex);
    } else {
      contribution[g_.vertex(cc.claim.vertex).type] = cc.claim.units;
    }
    for (VertexId a = cc.claim.vertex; a != graph::kInvalidVertex;
         a = g_.vertex(a).containment_parent) {
      const planner::PlannerMulti* filter = g_.vertex(a).filter.get();
      if (filter == nullptr) continue;
      auto& entry = updates[{a, cc.window.start}];
      entry.first = cc.window;
      entry.second.resize(filter->resource_count(), 0);
      for (const auto& [type, amount] : contribution) {
        if (auto idx = filter->index_of_id(type)) entry.second[*idx] += amount;
      }
    }
  }
  // Swap the old span set for the new one transactionally: tear down the
  // old spans (kept aside with their windows and counts), add the new
  // ones, and on any failure restore the exact prior set.
  std::vector<FilterSpan> old = std::move(rec.filter_spans);
  rec.filter_spans.clear();
  auto restore_old = [&]() {
    bool ok = true;
    for (FilterSpan& fs : rec.filter_spans) {
      ok &= static_cast<bool>(g_.vertex(fs.vertex).filter->rem_span(fs.span));
    }
    rec.filter_spans.clear();
    for (FilterSpan& fs : old) {
      auto back = g_.vertex(fs.vertex).filter->add_span(
          fs.window.start, fs.window.duration, fs.counts);
      fs.span = back ? *back : planner::kInvalidSpan;
      ok &= static_cast<bool>(back);
    }
    rec.filter_spans = std::move(old);
    return ok;
  };
  for (std::size_t i = 0; i < old.size(); ++i) {
    auto st = g_.vertex(old[i].vertex).filter->rem_span(old[i].span);
    if (!st) {
      const std::string path = g_.vertex(old[i].vertex).path;
      const std::string inner = st.error().message;
      // Entries before i were removed and must come back; entries from i
      // on (including the failed one) still hold live spans.
      bool rollback_ok = true;
      for (std::size_t j = 0; j < i; ++j) {
        auto back = g_.vertex(old[j].vertex).filter->add_span(
            old[j].window.start, old[j].window.duration, old[j].counts);
        old[j].span = back ? *back : planner::kInvalidSpan;
        rollback_ok &= static_cast<bool>(back);
      }
      rec.filter_spans = std::move(old);
      return util::internal_error(
          "rebuild_filter_spans: removing the filter span at " + path +
          " failed: " + inner + (rollback_ok ? "" : "; rollback incomplete"));
    }
  }
  for (auto& [key, entry] : updates) {
    if (std::all_of(entry.second.begin(), entry.second.end(),
                    [](std::int64_t c) { return c == 0; })) {
      continue;
    }
    auto span = add_multi_checked(*g_.vertex(key.first).filter, "rebuild:add",
                                  entry.first.start, entry.first.duration,
                                  entry.second);
    if (!span) {
      const std::string path = g_.vertex(key.first).path;
      const bool rollback_ok = restore_old();
      return util::internal_error(
          "rebuild_filter_spans: filter span rejected at " + path + ": " +
          span.error().message +
          (rollback_ok ? "" : "; rollback incomplete"));
    }
    rec.filter_spans.push_back({key.first, *span, entry.first, entry.second});
  }
  if (obs::enabled()) {
    auto& m = obs::monitor();
    m.sdfu_commits.inc();
    m.sdfu_spans.inc(rec.filter_spans.size());
    m.sdfu_spans_per_commit.add(static_cast<double>(rec.filter_spans.size()));
  }
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
  const std::string& prefix = g_.vertex(vertex).path;
  auto within = [&](VertexId v) {
    const std::string& p = g_.vertex(v).path;
    return p == prefix || (p.size() > prefix.size() &&
                           p.compare(0, prefix.size(), prefix) == 0 &&
                           p[prefix.size()] == '/');
  };
  for (const auto& [id, rec] : jobs_) {
    for (const CommittedClaim& cc : rec.claims) {
      if (within(cc.claim.vertex)) {
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
  // commit path: every schedule span belongs to one booked claim, every
  // covered-claim count matches, and every covered claim is booked by an
  // exclusive whole-instance claim of its own job and window above it.
  std::vector<std::size_t> booked(g_.vertex_count(), 0);
  std::vector<std::int32_t> covered(g_.vertex_count(), 0);
  for (const auto& [id, rec] : jobs_) {
    std::unordered_map<VertexId, std::vector<const CommittedClaim*>> own;
    for (const CommittedClaim& cc : rec.claims) {
      if (!cc.claim.covered) own[cc.claim.vertex].push_back(&cc);
    }
    for (const CommittedClaim& cc : rec.claims) {
      const VertexId v = cc.claim.vertex;
      if (!cc.claim.covered) {
        ++booked[v];
        if (g_.vertex(v).schedule->find_span(cc.span) == nullptr) return false;
        continue;
      }
      ++covered[v];
      // No span of its own job on a covered vertex.
      if (cc.span != planner::kInvalidSpan || own.contains(v)) return false;
      // The booking claim: up through single-parent vertices only, never
      // the root.
      bool found = false;
      for (VertexId p = v; !found;) {
        if (g_.vertex(p).contains_in != 1) return false;
        p = g_.vertex(p).containment_parent;
        if (p == graph::kInvalidVertex || p == root_) return false;
        if (auto it = own.find(p); it != own.end()) {
          for (const CommittedClaim* o : it->second) {
            found = found || (o->claim.exclusive && o->claim.whole_instance &&
                              o->window.start == cc.window.start &&
                              o->window.duration == cc.window.duration);
          }
        }
      }
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

bool Traverser::fault_fires(const char* point) {
  if (fault_point_.empty() || fault_point_ != point) return false;
  fault_point_.clear();
  return true;
}

util::Expected<planner::SpanId> Traverser::add_span_checked(
    planner::Planner& p, const char* point, TimePoint start, Duration d,
    std::int64_t amount) {
  if (fault_fires(point)) {
    return util::Error{Errc::resource_busy,
                       std::string("injected fault at ") + point};
  }
  return p.add_span(start, d, amount);
}

util::Expected<planner::SpanId> Traverser::add_multi_checked(
    planner::PlannerMulti& p, const char* point, TimePoint start, Duration d,
    const std::vector<std::int64_t>& counts) {
  if (fault_fires(point)) {
    return util::Error{Errc::resource_busy,
                       std::string("injected fault at ") + point};
  }
  return p.add_span(start, d, counts);
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
  for (const auto& [fid, fv] : [this] {
         std::vector<std::pair<VertexId, const planner::PlannerMulti*>> fs;
         for (VertexId v = 0; v < g_.vertex_count(); ++v) {
           if (g_.vertex(v).alive && g_.vertex(v).filter != nullptr) {
             fs.emplace_back(v, g_.vertex(v).filter.get());
           }
         }
         return fs;
       }()) {
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
            // Is c.vertex inside fid's subtree?
            bool inside = false;
            for (VertexId a = c.vertex; a != graph::kInvalidVertex;
                 a = g_.vertex(a).containment_parent) {
              if (a == fid) {
                inside = true;
                break;
              }
            }
            if (!inside) continue;
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
