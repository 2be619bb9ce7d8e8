// Everything a failed traverser mutation must leave as it found: for each
// live vertex the span count of its schedule, its x_checker and each
// pruning-filter sub-planner, their availability at every job-window
// boundary and its covered-claim count, plus every job's find_job()
// answer (start, duration, resources). Read through the planner and
// lookup API alone, so it shares no code with the traverser's bookkeeping
// or its audit: fault-injection tests compare the state before and after
// a failed call.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "graph/resource_graph.hpp"
#include "traverser/traverser.hpp"

namespace fluxion::testing_support {

/// Keyed by a readable label ("/cluster0/rack0 schedule avail@100"), so a
/// gtest failure names what moved.
using PlannerState = std::map<std::string, std::int64_t>;

/// The state of `g` and the jobs of `t` whose ids are in [0, max_job].
inline PlannerState planner_state(const graph::ResourceGraph& g,
                                  const traverser::Traverser& t,
                                  traverser::JobId max_job = 16) {
  PlannerState st;
  std::set<util::TimePoint> bounds;
  for (traverser::JobId id = 0; id <= max_job; ++id) {
    const traverser::MatchResult* r = t.find_job(id);
    if (r == nullptr) continue;
    const std::string job = "job" + std::to_string(id);
    st[job + " at"] = r->at;
    st[job + " duration"] = r->duration;
    st[job + " resources"] = static_cast<std::int64_t>(r->resources.size());
    for (const traverser::ResourceUnit& ru : r->resources) {
      st[job + " " + g.vertex(ru.vertex).path +
         (ru.exclusive ? " exclusive" : " shared")] = ru.units;
    }
    bounds.insert(r->at);
    bounds.insert(r->at + r->duration);
  }
  auto record = [&](const std::string& key, const planner::Planner& p) {
    st[key + " spans"] = static_cast<std::int64_t>(p.span_count());
    for (util::TimePoint b : bounds) {
      auto avail = p.avail_at(b);
      st[key + " avail@" + std::to_string(b)] = avail ? *avail : -1;
    }
  };
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    const graph::Vertex& vx = g.vertex(v);
    if (!vx.alive) continue;
    record(vx.path + " schedule", *vx.schedule);
    record(vx.path + " x_checker", *vx.x_checker);
    st[vx.path + " covered"] = vx.covered_claims;
    if (vx.filter == nullptr) continue;
    for (std::size_t i = 0; i < vx.filter->resource_count(); ++i) {
      const planner::Planner& p = vx.filter->planner_at(i);
      record(vx.path + " filter " + p.resource_type(), p);
    }
  }
  return st;
}

}  // namespace fluxion::testing_support
