#include "core/resource_query.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "writers/jgf_reader.hpp"

namespace fluxion::core {

util::Expected<std::unique_ptr<ResourceQuery>> ResourceQuery::create(
    const grug::Recipe& recipe, const Options& options) {
  auto graph = std::make_unique<graph::ResourceGraph>(options.plan_start,
                                                      options.horizon);
  auto root = grug::build(*graph, recipe);
  if (!root) return root.error();
  return create_from_graph(std::move(graph), *root, options);
}

util::Expected<std::unique_ptr<ResourceQuery>> ResourceQuery::create_from_text(
    std::string_view grug_text, const Options& options) {
  auto recipe = grug::parse(grug_text);
  if (!recipe) return recipe.error();
  return create(*recipe, options);
}

util::Expected<std::unique_ptr<ResourceQuery>> ResourceQuery::create_from_jgf(
    std::string_view jgf_text, const Options& options,
    const std::vector<std::string>& filter_types,
    const std::vector<std::string>& filter_at) {
  auto parsed =
      writers::read_jgf(jgf_text, options.plan_start, options.horizon);
  if (!parsed) return parsed.error();
  return create_from_graph(std::move(parsed->graph), parsed->root, options,
                           filter_types, filter_at);
}

util::Expected<std::unique_ptr<ResourceQuery>> ResourceQuery::create_from_graph(
    std::unique_ptr<graph::ResourceGraph> graph, graph::VertexId root,
    const Options& options, const std::vector<std::string>& filter_types,
    const std::vector<std::string>& filter_at) {
  auto rq = std::unique_ptr<ResourceQuery>(new ResourceQuery);
  rq->graph_ = std::move(graph);
  rq->root_ = root;
  if (!filter_types.empty() && filter_at.empty()) {
    // Silently installing no filters would disable pruning while the
    // caller believes it is on — reject the half-configured request.
    return util::Error{util::Errc::invalid_argument,
                       "create_from_graph: filter types given but no "
                       "filter-at anchor types"};
  }
  if (filter_types.empty() && !filter_at.empty()) {
    return util::Error{util::Errc::invalid_argument,
                       "create_from_graph: filter-at anchor types given but "
                       "no filter types to track"};
  }
  if (!filter_types.empty()) {
    std::vector<util::InternId> types;
    types.reserve(filter_types.size());
    for (const auto& t : filter_types) {
      types.push_back(rq->graph_->intern_type(t));
    }
    for (const auto& at : filter_at) {
      const auto type = rq->graph_->find_type(at);
      if (!type) {
        return util::Error{util::Errc::invalid_argument,
                           "create_from_graph: unknown filter-at type '" +
                               at + "' (not present in the graph)"};
      }
      for (auto v : rq->graph_->vertices_of_type(*type)) {
        if (auto st = rq->graph_->install_filter(v, types); !st) {
          return st.error();
        }
      }
    }
  }
  auto pol = policy::create(options.policy);
  if (!pol) return pol.error();
  rq->policy_ = std::move(*pol);
  rq->traverser_ = std::make_unique<traverser::Traverser>(
      *rq->graph_, rq->root_, *rq->policy_);
  return rq;
}

std::unique_ptr<ResourceQuery> ResourceQuery::adopt(
    std::unique_ptr<graph::ResourceGraph> graph,
    std::unique_ptr<traverser::MatchPolicy> policy,
    std::unique_ptr<traverser::Traverser> traverser, graph::VertexId root,
    JobId next_job_id) {
  auto rq = std::unique_ptr<ResourceQuery>(new ResourceQuery);
  rq->graph_ = std::move(graph);
  rq->policy_ = std::move(policy);
  rq->traverser_ = std::move(traverser);
  rq->root_ = root;
  rq->next_job_id_ = next_job_id;
  return rq;
}

util::Expected<MatchResult> ResourceQuery::match_allocate(
    const jobspec::Jobspec& js, TimePoint now) {
  return traverser_->match(js, traverser::MatchOp::allocate, now,
                           next_job_id());
}

util::Expected<MatchResult> ResourceQuery::match_allocate_orelse_reserve(
    const jobspec::Jobspec& js, TimePoint now) {
  return traverser_->match(js, traverser::MatchOp::allocate_orelse_reserve,
                           now, next_job_id());
}

util::Expected<MatchResult> ResourceQuery::satisfiability(
    const jobspec::Jobspec& js) {
  return traverser_->match(js, traverser::MatchOp::satisfiability, 0,
                           next_job_id());
}

util::Expected<MatchResult> ResourceQuery::match_allocate_yaml(
    std::string_view yaml, TimePoint now) {
  auto js = jobspec::Jobspec::from_yaml(yaml);
  if (!js) return js.error();
  return match_allocate(*js, now);
}

util::Status ResourceQuery::cancel(JobId job) {
  return traverser_->cancel(job);
}

void ResourceQuery::clear_stats() {
  traverser_->clear_stats();
  obs::monitor().reset();
}

std::string ResourceQuery::render(const MatchResult& result) const {
  // Stable, human-readable emission of the selected resource set.
  std::vector<std::string> lines;
  lines.reserve(result.resources.size());
  for (const auto& ru : result.resources) {
    const graph::Vertex& v = graph_->vertex(ru.vertex);
    std::string line = v.path + "[" + std::to_string(ru.units) + "]";
    if (ru.exclusive) line += "*";
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = "job " + std::to_string(result.job) + " at t=" +
                    std::to_string(result.at) + " for " +
                    std::to_string(result.duration) +
                    (result.reserved ? " (reserved)\n" : "\n");
  for (const std::string& l : lines) out += "  " + l + "\n";
  return out;
}

}  // namespace fluxion::core
