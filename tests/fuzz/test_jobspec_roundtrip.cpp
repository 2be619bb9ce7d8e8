// Generative property: random valid jobspec trees must validate,
// round-trip through YAML byte-identically, and match (or cleanly fail to
// match) against a real system without breaking any invariant.
#include <gtest/gtest.h>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "policy/policies.hpp"
#include "traverser/traverser.hpp"
#include "util/rng.hpp"

namespace fluxion::jobspec {
namespace {

const char* kLeafTypes[] = {"core", "gpu", "memory"};

/// Random resource subtree below the slot (depth-bounded).
Resource random_leafy(util::Rng& rng, int depth) {
  if (depth > 0 && rng.chance(0.3)) {
    // An intermediate socket with leaf children.
    std::vector<Resource> kids;
    const int n = static_cast<int>(rng.uniform(1, 2));
    for (int i = 0; i < n; ++i) kids.push_back(random_leafy(rng, 0));
    return res("socket", rng.uniform(1, 2), std::move(kids));
  }
  Resource leaf = res(kLeafTypes[rng.index(3)], rng.uniform(1, 4));
  if (rng.chance(0.2)) leaf.count_max = leaf.count + rng.uniform(1, 4);
  if (rng.chance(0.15)) leaf.requires_.push_back("tag=a");
  return leaf;
}

Jobspec random_jobspec(util::Rng& rng) {
  std::vector<Resource> inner;
  const int n = static_cast<int>(rng.uniform(1, 3));
  for (int i = 0; i < n; ++i) inner.push_back(random_leafy(rng, 1));
  Resource s = slot(rng.uniform(1, 3), std::move(inner));
  std::vector<Resource> top;
  if (rng.chance(0.5)) {
    top.push_back(res("node", rng.uniform(1, 2), {std::move(s)}));
  } else {
    top.push_back(std::move(s));
  }
  auto js = make(std::move(top), rng.uniform(1, 500));
  EXPECT_TRUE(js);
  return *js;
}

TEST(JobspecGenerative, RoundTripAndMatchNeverBreakInvariants) {
  graph::ResourceGraph g(0, 1 << 20);
  auto recipe = grug::parse(
      "filters node core\nfilter-at cluster\n"
      "cluster count=1\n  node count=4\n    socket count=2\n"
      "      core count=4\n      gpu count=1\n      memory count=2 size=16\n");
  ASSERT_TRUE(recipe);
  auto root = grug::build(g, *recipe);
  ASSERT_TRUE(root);
  // Tag half the cores so "tag=a" requirements are sometimes satisfiable.
  const auto cores = g.vertices_of_type(*g.find_type("core"));
  for (std::size_t i = 0; i < cores.size(); i += 2) {
    g.vertex(cores[i]).properties.emplace("tag", "a");
  }
  policy::LowIdPolicy pol;
  traverser::Traverser trav(g, *root, pol);

  util::Rng rng(20260705);
  traverser::JobId next = 1;
  int matched = 0;
  for (int i = 0; i < 400; ++i) {
    const Jobspec js = random_jobspec(rng);
    ASSERT_TRUE(js.validate());
    // YAML round trip is the identity on the canonical form.
    auto again = Jobspec::from_yaml(js.to_yaml());
    ASSERT_TRUE(again) << js.to_yaml();
    ASSERT_EQ(again->to_yaml(), js.to_yaml());
    // Matching either succeeds or fails with a meaningful category.
    auto r = trav.match(js, traverser::MatchOp::allocate, 0, next);
    if (r) {
      ++matched;
      ASSERT_TRUE(trav.cancel(next));
    } else {
      ASSERT_TRUE(r.error().code == util::Errc::resource_busy ||
                  r.error().code == util::Errc::unsatisfiable ||
                  r.error().code == util::Errc::out_of_range)
          << util::errc_name(r.error().code) << ": " << js.to_yaml();
    }
    ++next;
    if (i % 53 == 0) {
      ASSERT_TRUE(trav.verify_filters());
    }
  }
  // The generator must actually exercise the success path.
  EXPECT_GT(matched, 100);
  // And after all the cancels, the graph is fully idle.
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.vertex(v).schedule->span_count(), 0u);
  }
}

}  // namespace
}  // namespace fluxion::jobspec
