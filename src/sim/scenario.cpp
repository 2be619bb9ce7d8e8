#include "sim/scenario.hpp"

#include <algorithm>

#include "sim/drive.hpp"
#include "util/strings.hpp"

namespace fluxion::sim {

using util::Errc;

namespace {

util::Error scenario_error(int lineno, const std::string& what) {
  return util::Error{Errc::parse_error,
                     "scenario:" + std::to_string(lineno) + ": " + what};
}

std::optional<queue::EvictPolicy> parse_policy(std::string_view name) {
  if (name == "requeue") return queue::EvictPolicy::requeue;
  if (name == "kill") return queue::EvictPolicy::kill;
  return std::nullopt;
}

}  // namespace

util::Expected<Scenario> parse_scenario(std::string_view text) {
  Scenario scenario;
  int lineno = 0;
  for (std::string_view raw : util::split_lines(text)) {
    ++lineno;
    std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    std::vector<std::string_view> fields;
    for (auto f : util::split(line, ' ')) {
      if (!util::trim(f).empty()) fields.push_back(util::trim(f));
    }
    if (fields.front() != "@") {
      // Plain trace line: "<nodes> <duration> [arrival]".
      if (fields.size() != 2 && fields.size() != 3) {
        return scenario_error(lineno,
                              "expected '<nodes> <duration> [arrival]'");
      }
      const auto nodes = util::parse_i64(fields[0]);
      const auto duration = util::parse_i64(fields[1]);
      if (!nodes || *nodes < 1 || !duration || *duration < 1) {
        return scenario_error(lineno, "nodes and duration must be positive");
      }
      TraceJob job{*nodes, *duration, 0};
      if (fields.size() == 3) {
        const auto arrival = util::parse_i64(fields[2]);
        if (!arrival || *arrival < 0) {
          return scenario_error(lineno, "arrival must be non-negative");
        }
        job.arrival = *arrival;
      }
      scenario.jobs.push_back(job);
      continue;
    }
    // Event line: "@ TIME KIND PATH ...".
    if (fields.size() < 4) {
      return scenario_error(lineno, "expected '@ TIME status|grow|shrink PATH ...'");
    }
    DynEvent event;
    const auto at = util::parse_i64(fields[1]);
    if (!at || *at < 0) {
      return scenario_error(lineno, "event time must be non-negative");
    }
    event.at = *at;
    const std::string_view kind = fields[2];
    event.path = std::string(fields[3]);
    if (event.path.empty() || event.path.front() != '/') {
      return scenario_error(lineno, "event path must start with '/'");
    }
    if (kind == "status") {
      if (fields.size() != 5 && fields.size() != 6) {
        return scenario_error(
            lineno, "expected '@ TIME status PATH up|down|drained [requeue|kill]'");
      }
      const auto status = graph::parse_status(fields[4]);
      if (!status) {
        return scenario_error(lineno, "unknown status '" + std::string(fields[4]) +
                                          "' (want up|down|drained)");
      }
      event.kind = DynEventKind::status;
      event.status = *status;
      if (fields.size() == 6) {
        const auto policy = parse_policy(fields[5]);
        if (!policy) {
          return scenario_error(lineno, "unknown evict policy '" +
                                            std::string(fields[5]) +
                                            "' (want requeue|kill)");
        }
        event.policy = *policy;
      }
    } else if (kind == "grow") {
      if (fields.size() != 5) {
        return scenario_error(lineno,
                              "expected '@ TIME grow PARENT_PATH RECIPE_REF'");
      }
      event.kind = DynEventKind::grow;
      event.recipe_ref = std::string(fields[4]);
    } else if (kind == "shrink") {
      if (fields.size() != 4 && fields.size() != 5) {
        return scenario_error(lineno,
                              "expected '@ TIME shrink PATH [requeue|kill]'");
      }
      event.kind = DynEventKind::shrink;
      if (fields.size() == 5) {
        const auto policy = parse_policy(fields[4]);
        if (!policy) {
          return scenario_error(lineno, "unknown evict policy '" +
                                            std::string(fields[4]) +
                                            "' (want requeue|kill)");
        }
        event.policy = *policy;
      }
    } else {
      return scenario_error(lineno, "unknown event kind '" + std::string(kind) +
                                        "' (want status|grow|shrink)");
    }
    scenario.events.push_back(std::move(event));
  }
  return scenario;
}

std::string format_scenario(const Scenario& scenario) {
  std::string out = format_trace(scenario.jobs);
  if (scenario.events.empty()) return out;
  std::vector<std::size_t> order(scenario.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scenario.events[a].at < scenario.events[b].at;
  });
  out += "# @ time event path ...\n";
  for (std::size_t i : order) {
    const DynEvent& e = scenario.events[i];
    out += "@ " + std::to_string(e.at) + " ";
    switch (e.kind) {
      case DynEventKind::status:
        out += "status " + e.path + " " + graph::status_name(e.status);
        if (e.policy == queue::EvictPolicy::kill) out += " kill";
        break;
      case DynEventKind::grow:
        out += "grow " + e.path + " " + e.recipe_ref;
        break;
      case DynEventKind::shrink:
        out += "shrink " + e.path;
        if (e.policy == queue::EvictPolicy::kill) out += " kill";
        break;
    }
    out += "\n";
  }
  return out;
}

namespace {

util::Status apply_event(queue::JobQueue& q, dynamic::DynamicResources& dyn,
                         const DynEvent& event, const RecipeResolver& resolver,
                         ScenarioResult& result) {
  const graph::ResourceGraph& g = q.traverser().graph();
  const auto v = g.find_by_path(event.path);
  if (!v) {
    return util::Status(util::Error{
        Errc::not_found, "scenario event: no vertex at '" + event.path + "'"});
  }
  switch (event.kind) {
    case DynEventKind::status: {
      auto change = dyn.set_status(*v, event.status, event.policy);
      if (!change) return change.error();
      result.evicted.insert(result.evicted.end(), change->evicted.begin(),
                            change->evicted.end());
      result.replanned.insert(result.replanned.end(),
                              change->replanned.begin(),
                              change->replanned.end());
      ++result.status_events;
      return util::Status::ok();
    }
    case DynEventKind::grow: {
      if (!resolver) {
        return util::Status(util::Error{
            Errc::invalid_argument,
            "scenario grow event needs a recipe resolver"});
      }
      auto text = resolver(event.recipe_ref);
      if (!text) return text.error();
      auto root = dyn.grow(*v, *text);
      if (!root) return root.error();
      ++result.grow_events;
      return util::Status::ok();
    }
    case DynEventKind::shrink: {
      auto r = dyn.shrink(*v, event.policy);
      if (!r) return r.error();
      result.evicted.insert(result.evicted.end(), r->evicted.begin(),
                            r->evicted.end());
      result.replanned.insert(result.replanned.end(), r->replanned.begin(),
                              r->replanned.end());
      ++result.shrink_events;
      return util::Status::ok();
    }
  }
  return util::Status::ok();
}

util::Expected<ScenarioResult> run_scenario(
    queue::JobQueue& q, dynamic::DynamicResources& dyn,
    const Scenario& scenario, std::int64_t cores_per_node,
    const RecipeResolver& resolver, const std::vector<detail::Act>& acts,
    std::size_t k0, util::TimePoint checkpoint_at,
    const std::function<void(std::size_t)>& on_checkpoint) {
  auto on_event = [&](std::size_t idx, ScenarioResult& result) {
    return apply_event(q, dyn, scenario.events[idx], resolver, result);
  };
  return detail::drive<ScenarioResult>(q, acts, k0, scenario.jobs,
                                       cores_per_node, on_event,
                                       checkpoint_at, on_checkpoint);
}

}  // namespace

namespace detail {

std::vector<Act> act_order(const std::vector<TraceJob>& jobs,
                           const std::vector<DynEvent>& events) {
  std::vector<Act> acts;
  acts.reserve(jobs.size() + events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    acts.push_back({events[i].at, false, i});
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    acts.push_back({jobs[i].arrival, true, i});
  }
  std::stable_sort(acts.begin(), acts.end(), [](const Act& a, const Act& b) {
    if (a.at != b.at) return a.at < b.at;
    return !a.is_job && b.is_job;
  });
  return acts;
}

}  // namespace detail

util::Expected<ScenarioResult> replay_scenario(
    queue::JobQueue& q, dynamic::DynamicResources& dyn,
    const Scenario& scenario, std::int64_t cores_per_node,
    const RecipeResolver& resolver) {
  if (q.now() != 0 || q.stats().submitted != 0) {
    return util::Error{Errc::invalid_argument,
                       "replay_scenario: queue already used"};
  }
  return run_scenario(q, dyn, scenario, cores_per_node, resolver,
                      detail::act_order(scenario.jobs, scenario.events), 0, 0,
                      {});
}

util::Expected<ScenarioResult> replay_scenario_checkpoint(
    queue::JobQueue& q, dynamic::DynamicResources& dyn,
    const Scenario& scenario, std::int64_t cores_per_node,
    const RecipeResolver& resolver, util::TimePoint checkpoint_at,
    const ScenarioCheckpointFn& on_checkpoint) {
  if (q.now() != 0 || q.stats().submitted != 0) {
    return util::Error{Errc::invalid_argument,
                       "replay_scenario: queue already used"};
  }
  if (!on_checkpoint) {
    return util::Error{Errc::invalid_argument,
                       "replay_scenario: null checkpoint callback"};
  }
  if (checkpoint_at < 0) {
    // A pre-first-act snapshot is indistinguishable from a t=0 boundary
    // on resume; just replay from scratch instead.
    return util::Error{Errc::invalid_argument,
                       "replay_scenario: checkpoint time must be >= 0"};
  }
  return run_scenario(q, dyn, scenario, cores_per_node, resolver,
                      detail::act_order(scenario.jobs, scenario.events), 0,
                      checkpoint_at, [&](std::size_t) { on_checkpoint(q); });
}

util::Expected<ScenarioResult> resume_scenario(
    queue::JobQueue& q, dynamic::DynamicResources& dyn,
    const Scenario& scenario, std::int64_t cores_per_node,
    const RecipeResolver& resolver) {
  // The checkpoint fired at a batch boundary: every act at or before the
  // restored clock was applied, every later act was not.
  const std::vector<detail::Act> acts =
      detail::act_order(scenario.jobs, scenario.events);
  std::size_t k0 = 0;
  std::size_t prefix_jobs = 0;
  for (; k0 < acts.size() && acts[k0].at <= q.now(); ++k0) {
    prefix_jobs += acts[k0].is_job ? 1 : 0;
  }
  if (prefix_jobs != static_cast<std::size_t>(q.stats().submitted) ||
      prefix_jobs != q.all_jobs().size()) {
    return util::Error{Errc::invalid_argument,
                       "resume_scenario: queue job count disagrees with the "
                       "scenario prefix"};
  }
  return run_scenario(q, dyn, scenario, cores_per_node, resolver, acts, k0, 0,
                      {});
}

}  // namespace fluxion::sim
