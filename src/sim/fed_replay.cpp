#include "sim/fed_replay.hpp"

#include <memory>
#include <optional>

#include "dynamic/dynamic.hpp"
#include "sim/drive.hpp"
#include "util/strings.hpp"

namespace fluxion::sim {

using util::Errc;

util::Expected<FedReplayResult> replay_trace(
    hier::Federation& fed, const std::vector<TraceJob>& trace,
    std::int64_t cores_per_node) {
  if (fed.now() != 0 || !fed.all_jobs().empty()) {
    return util::Error{Errc::invalid_argument,
                       "replay_trace: federation already used"};
  }
  return detail::drive<FedReplayResult>(fed, detail::act_order(trace, {}), 0,
                                        trace, cores_per_node,
                                        detail::no_events, 0, {});
}

namespace {

struct Owner {
  std::size_t member = 0;
  graph::VertexId vertex = graph::kInvalidVertex;
};

/// Resolve `path` in one member's graph. Child graphs re-root granted
/// vertices directly under their synthetic cluster ("/cluster0/<node>"),
/// so a machine path like "/cluster0/rack1/node7" is also tried with the
/// levels between the cluster root and the granted vertex stripped
/// (names are unique machine-wide, so a suffix hit is unambiguous).
std::optional<graph::VertexId> resolve_path(const graph::ResourceGraph& g,
                                            const std::string& path) {
  if (const auto v = g.find_by_path(path)) return *v;
  const auto parts = util::split(path, '/');  // leading '/' -> parts[0] == ""
  for (std::size_t k = 2; k < parts.size(); ++k) {
    std::string candidate = "/cluster0";
    for (std::size_t i = k; i < parts.size(); ++i) {
      candidate += '/';
      candidate += parts[i];
    }
    if (const auto v = g.find_by_path(candidate)) return *v;
  }
  return std::nullopt;
}

/// The member owning `path`: the first leaf whose graph resolves it, the
/// root as fallback (the root graph holds the whole machine, so a path
/// no leaf owns — e.g. a rack or the cluster root — lands there).
util::Expected<Owner> owning_member(const hier::Federation& fed,
                                    const std::string& path) {
  for (std::size_t i = 0; i < fed.member_count(); ++i) {
    if (fed.member(i).is_root) continue;
    const auto& g = fed.member(i).instance->engine().graph();
    if (const auto v = resolve_path(g, path)) return Owner{i, *v};
  }
  for (std::size_t i = 0; i < fed.member_count(); ++i) {
    if (!fed.member(i).is_root) continue;
    const auto& g = fed.member(i).instance->engine().graph();
    if (const auto v = g.find_by_path(path)) return Owner{i, *v};
  }
  return util::Error{Errc::not_found,
                     "scenario event: no member owns '" + path + "'"};
}

util::Status apply_event(hier::Federation& fed,
                         std::vector<std::unique_ptr<dynamic::DynamicResources>>& dyns,
                         const DynEvent& event, const RecipeResolver& resolver,
                         FedScenarioResult& result) {
  auto owner = owning_member(fed, event.path);
  if (!owner) return owner.error();
  dynamic::DynamicResources& dyn = *dyns[owner->member];
  const graph::VertexId v = owner->vertex;
  switch (event.kind) {
    case DynEventKind::status: {
      auto change = dyn.set_status(v, event.status, event.policy);
      if (!change) return change.error();
      ++result.status_events;
      break;
    }
    case DynEventKind::grow: {
      if (!resolver) {
        return util::Status(util::Error{
            Errc::invalid_argument,
            "scenario grow event needs a recipe resolver"});
      }
      auto text = resolver(event.recipe_ref);
      if (!text) return text.error();
      auto sub = dyn.grow(v, *text);
      if (!sub) return sub.error();
      ++result.grow_events;
      break;
    }
    case DynEventKind::shrink: {
      auto r = dyn.shrink(v, event.policy);
      if (!r) return r.error();
      ++result.shrink_events;
      break;
    }
  }
  // Member capacity changed: cached satisfiability verdicts are void.
  fed.invalidate_sat_cache();
  return util::Status::ok();
}

}  // namespace

util::Expected<FedScenarioResult> replay_scenario(
    hier::Federation& fed, const Scenario& scenario,
    std::int64_t cores_per_node, const RecipeResolver& resolver) {
  if (fed.now() != 0 || !fed.all_jobs().empty()) {
    return util::Error{Errc::invalid_argument,
                       "replay_scenario: federation already used"};
  }
  std::vector<std::unique_ptr<dynamic::DynamicResources>> dyns;
  for (std::size_t i = 0; i < fed.member_count(); ++i) {
    hier::Member& m = fed.member(i);
    dyns.push_back(std::make_unique<dynamic::DynamicResources>(
        m.instance->engine().graph(), m.instance->engine().traverser(),
        m.queue.get()));
  }

  auto on_event = [&](std::size_t idx, FedScenarioResult& result) {
    return apply_event(fed, dyns, scenario.events[idx], resolver, result);
  };
  return detail::drive<FedScenarioResult>(
      fed, detail::act_order(scenario.jobs, scenario.events), 0,
      scenario.jobs, cores_per_node, on_event, 0, {});
}

}  // namespace fluxion::sim
