#include "policy/policies.hpp"

#include <algorithm>
#include <climits>

#include "util/strings.hpp"

namespace fluxion::policy {

using graph::VertexId;

int perf_class_of(const graph::ResourceGraph& g, VertexId v) {
  const auto& props = g.vertex(v).properties;
  auto it = props.find(std::string(kPerfClassKey));
  if (it == props.end()) return -1;
  auto parsed = util::parse_i64(it->second);
  return parsed ? static_cast<int>(*parsed) : -1;
}

void LowIdPolicy::order_candidates(const graph::ResourceGraph& g,
                                   std::vector<VertexId>& candidates) const {
  std::sort(candidates.begin(), candidates.end(),
            [&](VertexId a, VertexId b) {
              return g.vertex(a).uniq_id < g.vertex(b).uniq_id;
            });
}

void HighIdPolicy::order_candidates(const graph::ResourceGraph& g,
                                    std::vector<VertexId>& candidates) const {
  std::sort(candidates.begin(), candidates.end(),
            [&](VertexId a, VertexId b) {
              return g.vertex(a).uniq_id > g.vertex(b).uniq_id;
            });
}

void LocalityPolicy::order_candidates(const graph::ResourceGraph& g,
                                      std::vector<VertexId>& candidates)
    const {
  // Pack onto parents that are already in use: a parent whose x_checker or
  // schedule shows activity right now, or that holds a covered claim (one
  // booked by an exclusive ancestor's span), sorts first; ties break on id.
  auto busy_parent = [&](VertexId v) {
    const VertexId p = g.vertex(v).containment_parent;
    if (p == graph::kInvalidVertex) return 1;
    const graph::Vertex& px = g.vertex(p);
    const bool active = px.x_checker->span_count() > 0 ||
                        px.schedule->span_count() > 0 ||
                        px.covered_claims > 0;
    return active ? 0 : 1;
  };
  std::sort(candidates.begin(), candidates.end(),
            [&](VertexId a, VertexId b) {
              const int ba = busy_parent(a);
              const int bb = busy_parent(b);
              if (ba != bb) return ba < bb;
              return g.vertex(a).uniq_id < g.vertex(b).uniq_id;
            });
}

void VariationAwarePolicy::order_candidates(
    const graph::ResourceGraph& g, std::vector<VertexId>& candidates) const {
  std::sort(candidates.begin(), candidates.end(),
            [&](VertexId a, VertexId b) {
              const int ca = perf_class_of(g, a);
              const int cb = perf_class_of(g, b);
              if (ca != cb) return ca < cb;
              return g.vertex(a).uniq_id < g.vertex(b).uniq_id;
            });
}

void VariationAwarePolicy::plan_selection(const graph::ResourceGraph& g,
                                          std::vector<VertexId>& candidates,
                                          std::int64_t needed) const {
  // Sort by (class, id), then find the minimum-spread contiguous window of
  // `needed` candidates: since classes are sorted, the spread of any
  // selection of k candidates is minimised by some window of k consecutive
  // ones. Rotate that window to the front so the greedy selector tries it
  // first; the remainder keeps class order as fallback.
  order_candidates(g, candidates);
  const std::int64_t n = static_cast<std::int64_t>(candidates.size());
  if (needed <= 0 || needed >= n) return;
  // Ignore class-less candidates for the window search (they sort first
  // with class -1; treat them as ordinary members — spread math still
  // minimises correctly since -1 behaves as its own class).
  std::int64_t best_start = 0;
  int best_spread = INT_MAX;
  for (std::int64_t i = 0; i + needed <= n; ++i) {
    const int spread = perf_class_of(g, candidates[i + needed - 1]) -
                       perf_class_of(g, candidates[i]);
    if (spread < best_spread) {
      best_spread = spread;
      best_start = i;
      if (spread == 0) break;  // cannot do better; prefer fastest class
    }
  }
  std::rotate(candidates.begin(), candidates.begin() + best_start,
              candidates.begin() + best_start + needed);
}

void CustomPolicy::order_candidates(const graph::ResourceGraph& g,
                                    std::vector<VertexId>& candidates) const {
  std::sort(candidates.begin(), candidates.end(),
            [&](VertexId a, VertexId b) {
              const double sa = scorer_(g, a);
              const double sb = scorer_(g, b);
              if (sa != sb) return sa < sb;
              return g.vertex(a).uniq_id < g.vertex(b).uniq_id;
            });
}

util::Expected<std::unique_ptr<traverser::MatchPolicy>> create(
    std::string_view name) {
  if (name == "low-id" || name == "first") {
    return std::unique_ptr<traverser::MatchPolicy>(new LowIdPolicy);
  }
  if (name == "high-id") {
    return std::unique_ptr<traverser::MatchPolicy>(new HighIdPolicy);
  }
  if (name == "locality") {
    return std::unique_ptr<traverser::MatchPolicy>(new LocalityPolicy);
  }
  if (name == "variation-aware" || name == "var-aware") {
    return std::unique_ptr<traverser::MatchPolicy>(new VariationAwarePolicy);
  }
  return util::Error{util::Errc::not_found,
                     "unknown policy '" + std::string(name) + "'"};
}

}  // namespace fluxion::policy
