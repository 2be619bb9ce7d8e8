// Traverser unit tests: matching, exclusivity, pruning, reservations and
// cancel, on small hand-built systems.
#include "traverser/traverser.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "policy/policies.hpp"
#include "util/check.hpp"

namespace fluxion::traverser {
namespace {

using jobspec::make;
using jobspec::res;
using jobspec::slot;
using jobspec::xres;
using util::Errc;

constexpr const char* kTinyRecipe = R"(
filters core memory
filter-at cluster rack
cluster count=1
  rack count=2
    node count=2
      core count=4
      memory count=2 size=16
      gpu count=1
)";

class TinyCluster : public ::testing::Test {
 protected:
  TinyCluster() : g(0, 100000) {
    auto recipe = grug::parse(kTinyRecipe);
    EXPECT_TRUE(recipe);
    auto r = grug::build(g, *recipe);
    EXPECT_TRUE(r);
    root = *r;
    trav = std::make_unique<Traverser>(g, root, pol);
  }

  std::int64_t total_core_avail(util::TimePoint t) {
    std::int64_t total = 0;
    for (auto v : g.vertices_of_type(*g.find_type("core"))) {
      total += *g.vertex(v).schedule->avail_at(t);
    }
    return total;
  }

  graph::ResourceGraph g;
  graph::VertexId root = graph::kInvalidVertex;
  policy::LowIdPolicy pol;
  std::unique_ptr<Traverser> trav;
};

TEST_F(TinyCluster, AllocateSimpleSlot) {
  auto js = make({res("node", 1, {slot(1, {res("core", 2)})})}, 10);
  ASSERT_TRUE(js);
  auto r = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_TRUE(r) << r.error().message;
  EXPECT_EQ(r->at, 0);
  EXPECT_FALSE(r->reserved);
  EXPECT_EQ(total_core_avail(0), 16 - 2);
  EXPECT_TRUE(trav->verify_filters());
}

TEST_F(TinyCluster, ClaimedCoresAreExclusive) {
  auto js = make({res("node", 1, {slot(1, {res("core", 2)})})}, 10);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  const MatchResult* alloc = trav->find_job(1);
  ASSERT_NE(alloc, nullptr);
  bool core_claimed = false;
  for (const ResourceUnit& ru : alloc->resources) {
    if (g.type_name(g.vertex(ru.vertex).type) == "core") {
      EXPECT_TRUE(ru.exclusive);
      EXPECT_EQ(ru.units, 1);
      core_claimed = true;
    }
  }
  EXPECT_TRUE(core_claimed);
}

TEST_F(TinyCluster, SharedNodeHostsMultipleJobs) {
  auto js = make({res("node", 1, {slot(1, {res("core", 2)})})}, 10);
  ASSERT_TRUE(js);
  // 16 cores total; 8 jobs of 2 cores fit simultaneously.
  for (JobId j = 1; j <= 8; ++j) {
    auto r = trav->match(*js, MatchOp::allocate, 0, j);
    ASSERT_TRUE(r) << "job " << j << ": " << r.error().message;
  }
  EXPECT_EQ(total_core_avail(0), 0);
  auto r9 = trav->match(*js, MatchOp::allocate, 0, 9);
  ASSERT_FALSE(r9);
  EXPECT_EQ(r9.error().code, Errc::resource_busy);
  EXPECT_TRUE(trav->verify_filters());
}

TEST_F(TinyCluster, ExclusiveNodeBlocksSharedUse) {
  auto excl = make({slot(1, {xres("node", 1)})}, 10);
  ASSERT_TRUE(excl);
  auto shared = make({res("node", 1, {slot(1, {res("core", 1)})})}, 10);
  ASSERT_TRUE(shared);
  // Fill all 4 nodes exclusively.
  for (JobId j = 1; j <= 4; ++j) {
    ASSERT_TRUE(trav->match(*excl, MatchOp::allocate, 0, j));
  }
  // No shared core request can land anywhere now, even though the core
  // planners themselves were never touched.
  auto r = trav->match(*shared, MatchOp::allocate, 0, 99);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
}

TEST_F(TinyCluster, SharedUseBlocksExclusiveClaim) {
  auto shared = make({res("node", 1, {slot(1, {res("core", 1)})})}, 10);
  ASSERT_TRUE(shared);
  ASSERT_TRUE(trav->match(*shared, MatchOp::allocate, 0, 1));
  // The shared job landed on node0 (low-id policy). An exclusive claim on
  // all 4 nodes must fail; 3 nodes remain claimable.
  auto excl1 = make({slot(1, {xres("node", 3)})}, 10);
  ASSERT_TRUE(excl1);
  ASSERT_TRUE(trav->match(*excl1, MatchOp::allocate, 0, 2));
  auto excl2 = make({slot(1, {xres("node", 1)})}, 10);
  ASSERT_TRUE(excl2);
  auto r = trav->match(*excl2, MatchOp::allocate, 0, 3);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::resource_busy);
}

TEST_F(TinyCluster, CancelRestoresEverything) {
  auto js = make({res("node", 2, {slot(1, {res("core", 4), res("memory", 16)})})},
                 10);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  EXPECT_LT(total_core_avail(0), 16);
  ASSERT_TRUE(trav->cancel(1));
  EXPECT_EQ(total_core_avail(0), 16);
  EXPECT_EQ(trav->job_count(), 0u);
  EXPECT_TRUE(trav->verify_filters());
  // Everything is claimable again.
  auto excl = make({slot(1, {xres("node", 4)})}, 10);
  ASSERT_TRUE(excl);
  EXPECT_TRUE(trav->match(*excl, MatchOp::allocate, 0, 2));
}

TEST_F(TinyCluster, CancelUnknownJobFails) {
  EXPECT_EQ(trav->cancel(42).error().code, Errc::not_found);
}

TEST_F(TinyCluster, DuplicateJobIdRejected) {
  auto js = make({res("node", 1, {slot(1, {res("core", 1)})})}, 10);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 7));
  EXPECT_EQ(trav->match(*js, MatchOp::allocate, 0, 7).error().code,
            Errc::exists);
}

TEST_F(TinyCluster, ReserveWhenBusy) {
  auto fill = make({slot(1, {xres("node", 4)})}, 100);
  ASSERT_TRUE(fill);
  ASSERT_TRUE(trav->match(*fill, MatchOp::allocate_orelse_reserve, 0, 1));
  auto js = make({res("node", 1, {slot(1, {res("core", 1)})})}, 10);
  ASSERT_TRUE(js);
  auto r = trav->match(*js, MatchOp::allocate_orelse_reserve, 0, 2);
  ASSERT_TRUE(r) << r.error().message;
  EXPECT_TRUE(r->reserved);
  EXPECT_EQ(r->at, 100);  // starts right as the blocking job ends
}

TEST_F(TinyCluster, ConservativeBackfillOrder) {
  // j1 takes all nodes [0,100); j2 (all nodes) reserves [100,200);
  // j3 wants 1 core for 50 -> backfills only at t=200?? No: nodes are
  // fully exclusive until 200, so j3 lands at 200. A short job that fits
  // before t=100 cannot exist (cluster full), so backfill respects both.
  auto fill = make({slot(1, {xres("node", 4)})}, 100);
  ASSERT_TRUE(fill);
  ASSERT_TRUE(trav->match(*fill, MatchOp::allocate_orelse_reserve, 0, 1));
  ASSERT_TRUE(trav->match(*fill, MatchOp::allocate_orelse_reserve, 0, 2));
  EXPECT_EQ(trav->find_job(2)->at, 100);
  auto small = make({res("node", 1, {slot(1, {res("core", 1)})})}, 50);
  ASSERT_TRUE(small);
  auto r3 = trav->match(*small, MatchOp::allocate_orelse_reserve, 0, 3);
  ASSERT_TRUE(r3);
  EXPECT_EQ(r3->at, 200);
  // Cancel j1: j2/j3 keep their reservations (conservative), but new jobs
  // can use the freed window.
  ASSERT_TRUE(trav->cancel(1));
  auto r4 = trav->match(*small, MatchOp::allocate_orelse_reserve, 0, 4);
  ASSERT_TRUE(r4);
  EXPECT_EQ(r4->at, 0);
  EXPECT_FALSE(r4->reserved);
}

TEST_F(TinyCluster, RackLevelConstraint) {
  // 2 exclusive nodes spread across 2 racks (paper Figure 4b shape).
  auto js = make({res("rack", 2, {slot(1, {xres("node", 1)})})}, 10);
  ASSERT_TRUE(js);
  auto r = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_TRUE(r) << r.error().message;
  // Each rack must contribute exactly one node.
  int rack0_nodes = 0, rack1_nodes = 0;
  for (const ResourceUnit& ru : r->resources) {
    const graph::Vertex& v = g.vertex(ru.vertex);
    if (g.type_name(v.type) != "node") continue;
    if (v.path.find("rack0") != std::string::npos) ++rack0_nodes;
    if (v.path.find("rack1") != std::string::npos) ++rack1_nodes;
  }
  EXPECT_EQ(rack0_nodes, 1);
  EXPECT_EQ(rack1_nodes, 1);
}

TEST_F(TinyCluster, UnsatisfiableCountFailsFast) {
  auto js = make({res("node", 5, {slot(1, {res("core", 1)})})}, 10);
  ASSERT_TRUE(js);
  auto r = trav->match(*js, MatchOp::allocate_orelse_reserve, 0, 1);
  ASSERT_FALSE(r);
  auto sat = trav->match(*js, MatchOp::satisfiability, 0, 2);
  ASSERT_FALSE(sat);
  EXPECT_EQ(sat.error().code, Errc::unsatisfiable);
}

TEST_F(TinyCluster, SatisfiabilityIgnoresLoad) {
  auto fill = make({slot(1, {xres("node", 4)})}, 100);
  ASSERT_TRUE(fill);
  ASSERT_TRUE(trav->match(*fill, MatchOp::allocate, 0, 1));
  auto js = make({slot(1, {xres("node", 4)})}, 10);
  ASSERT_TRUE(js);
  auto sat = trav->match(*js, MatchOp::satisfiability, 0, 2);
  EXPECT_TRUE(sat) << sat.error().message;
  EXPECT_EQ(trav->job_count(), 1u);  // nothing committed
}

TEST_F(TinyCluster, GpuAndMemoryTogether) {
  auto js = make({res("node", 1, {slot(1, {res("core", 2), res("gpu", 1),
                                           res("memory", 16)})})},
                 10);
  ASSERT_TRUE(js);
  // Each node has 1 gpu; 4 jobs exhaust gpus even though cores remain.
  for (JobId j = 1; j <= 4; ++j) {
    ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, j)) << j;
  }
  auto r = trav->match(*js, MatchOp::allocate, 0, 5);
  ASSERT_FALSE(r);
  EXPECT_GT(total_core_avail(0), 0);
  EXPECT_TRUE(trav->verify_filters());
}

TEST_F(TinyCluster, MemoryPoolPartialClaims) {
  // Each node: 2 memory pools x 16 = 32 units. Claim 24 (one full pool +
  // half the other) twice on different nodes.
  auto js = make({res("node", 1, {slot(1, {res("memory", 24)})})}, 10);
  ASSERT_TRUE(js);
  for (JobId j = 1; j <= 4; ++j) {
    ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, j)) << j;
  }
  // A fifth 24-unit claim on any single node is impossible (8 left/node),
  // but 8 units still fit.
  auto r5 = trav->match(*js, MatchOp::allocate, 0, 5);
  EXPECT_FALSE(r5);
  auto small = make({res("node", 1, {slot(1, {res("memory", 8)})})}, 10);
  ASSERT_TRUE(small);
  EXPECT_TRUE(trav->match(*small, MatchOp::allocate, 0, 6));
}

TEST_F(TinyCluster, StatsTrackVisitsAndPrunes) {
  auto js = make({res("node", 1, {slot(1, {res("core", 4)})})}, 10);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  EXPECT_GT(trav->stats().visits, 0u);
  EXPECT_GT(trav->stats().last_visits, 0u);
  EXPECT_EQ(trav->stats().match_attempts, 1u);
}

TEST_F(TinyCluster, PruningSkipsFullRacks) {
  // Fill rack0's both nodes exclusively, then ask for cores: the rack
  // filter should prune rack0's subtree.
  auto fill_node = make({slot(1, {xres("node", 2)})}, 100);
  ASSERT_TRUE(fill_node);
  ASSERT_TRUE(trav->match(*fill_node, MatchOp::allocate, 0, 1));
  const auto pruned_before = trav->stats().pruned;
  auto js = make({res("node", 1, {slot(1, {res("core", 1)})})}, 10);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 2));
  EXPECT_GT(trav->stats().pruned, pruned_before);
  EXPECT_TRUE(trav->verify_filters());
}

TEST_F(TinyCluster, WindowLeavingHorizonRejected) {
  auto js = make({res("node", 1, {slot(1, {res("core", 1)})})}, 200000);
  ASSERT_TRUE(js);
  auto r = trav->match(*js, MatchOp::allocate, 0, 1);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::out_of_range);
}

TEST_F(TinyCluster, AllocateWithSatisfiabilityDistinguishesErrors) {
  auto fill = make({slot(1, {xres("node", 4)})}, 100);
  ASSERT_TRUE(fill);
  ASSERT_TRUE(trav->match(*fill, MatchOp::allocate, 0, 1));
  // Same shape again: busy now, but satisfiable later.
  auto busy = trav->match(*fill, MatchOp::allocate_with_satisfiability, 0, 2);
  ASSERT_FALSE(busy);
  EXPECT_EQ(busy.error().code, Errc::resource_busy);
  // Five nodes never exist.
  auto impossible = make({slot(1, {xres("node", 5)})}, 100);
  ASSERT_TRUE(impossible);
  auto unsat =
      trav->match(*impossible, MatchOp::allocate_with_satisfiability, 0, 3);
  ASSERT_FALSE(unsat);
  EXPECT_EQ(unsat.error().code, Errc::unsatisfiable);
  // And when it can run right now, it simply allocates.
  ASSERT_TRUE(trav->cancel(1));
  auto ok = trav->match(*fill, MatchOp::allocate_with_satisfiability, 0, 4);
  EXPECT_TRUE(ok);
}

// --- multi-rack exclusive spread with reservations --------------------------

TEST_F(TinyCluster, ReservationsAccumulate) {
  auto js = make({slot(1, {xres("node", 4)})}, 50);
  ASSERT_TRUE(js);
  for (JobId j = 1; j <= 5; ++j) {
    auto r = trav->match(*js, MatchOp::allocate_orelse_reserve, 0, j);
    ASSERT_TRUE(r) << j;
    EXPECT_EQ(r->at, (j - 1) * 50);
  }
  EXPECT_EQ(trav->job_count(), 5u);
  EXPECT_TRUE(trav->verify_filters());
}

std::string tiny_recipe_text() {
  std::ifstream in(std::string(FLUXION_RECIPE_DIR) + "/tiny.grug");
  EXPECT_TRUE(in);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// An exclusive claim on the traverser root must see the jobs below it: the
// walk refuses it (resource_busy) and reserves it for when the jobs end,
// instead of passing it and failing at commit.
TEST(RootClaim, ExclusiveRootClaimWaitsForJobsBelow) {
  auto recipe = grug::parse(tiny_recipe_text());
  ASSERT_TRUE(recipe);
  graph::ResourceGraph g(0, 100000);
  auto root = grug::build(g, *recipe);
  ASSERT_TRUE(root);
  policy::LowIdPolicy pol;
  Traverser trav(g, *root, pol);
  trav.set_audit(true);
  const std::uint64_t internal0 = util::internal_error_count();

  auto cores = make({slot(1, {res("core", 2)})}, 100);
  auto cluster = make({slot(1, {res("cluster", 1)})}, 50);
  ASSERT_TRUE(cores);
  ASSERT_TRUE(cluster);
  ASSERT_TRUE(trav.match(*cores, MatchOp::allocate, 0, 1));

  auto now = trav.match(*cluster, MatchOp::allocate, 0, 2);
  ASSERT_FALSE(now);
  EXPECT_EQ(now.error().code, Errc::resource_busy) << now.error().message;

  auto later = trav.match(*cluster, MatchOp::allocate_orelse_reserve, 0, 3);
  ASSERT_TRUE(later) << later.error().message;
  EXPECT_TRUE(later->reserved);
  EXPECT_EQ(later->at, 100);

  // Restoring a whole-root allocation over the job below is refused too.
  MatchResult whole;
  whole.job = 4;
  whole.at = 0;
  whole.duration = 50;
  whole.resources.push_back({*root, 1, true});
  auto restored = trav.restore(whole);
  ASSERT_FALSE(restored);
  EXPECT_EQ(restored.error().code, Errc::resource_busy)
      << restored.error().message;
  EXPECT_EQ(util::internal_error_count(), internal0);
}

// The converse: while one job holds the root whole, nothing may be placed
// or restored beneath it. With a root pruning filter a walk that missed
// this would fail at commit; without one it would double-book.
TEST(RootClaim, JobBelowExclusiveRootWaits) {
  const std::string stock = tiny_recipe_text();
  std::string rack_only = stock;
  const std::string cluster_filter = "filter-at cluster rack";
  const auto at = rack_only.find(cluster_filter);
  ASSERT_NE(at, std::string::npos);
  rack_only.replace(at, cluster_filter.size(), "filter-at rack");
  for (const std::string& text : {stock, rack_only}) {
    const auto line = text.find("filter-at");
    SCOPED_TRACE(text.substr(line, text.find('\n', line) - line));
    auto recipe = grug::parse(text);
    ASSERT_TRUE(recipe);
    graph::ResourceGraph g(0, 100000);
    auto root = grug::build(g, *recipe);
    ASSERT_TRUE(root);
    policy::LowIdPolicy pol;
    Traverser trav(g, *root, pol);
    trav.set_audit(true);
    const std::uint64_t internal0 = util::internal_error_count();

    auto cluster = make({slot(1, {res("cluster", 1)})}, 50);
    auto cores = make({slot(1, {res("core", 2)})}, 100);
    ASSERT_TRUE(cluster);
    ASSERT_TRUE(cores);
    auto held = trav.match(*cluster, MatchOp::allocate, 0, 1);
    ASSERT_TRUE(held) << held.error().message;
    EXPECT_EQ(held->at, 0);

    auto now = trav.match(*cores, MatchOp::allocate, 0, 2);
    ASSERT_FALSE(now);
    EXPECT_EQ(now.error().code, Errc::resource_busy) << now.error().message;

    auto later = trav.match(*cores, MatchOp::allocate_orelse_reserve, 0, 3);
    ASSERT_TRUE(later) << later.error().message;
    EXPECT_TRUE(later->reserved);
    EXPECT_EQ(later->at, 50);

    // Nor may the root claim be extended over the job reserved after it.
    auto extended = trav.extend(1, 10);
    ASSERT_FALSE(extended);
    EXPECT_EQ(extended.error().code, Errc::resource_busy)
        << extended.error().message;

    // Restoring an allocation below the held root is refused the same way.
    MatchResult below;
    below.job = 4;
    below.at = 0;
    below.duration = 10;
    below.resources.push_back(
        {g.vertices_of_type(*g.find_type("core")).front(), 1, true});
    auto restored = trav.restore(below);
    ASSERT_FALSE(restored);
    EXPECT_EQ(restored.error().code, Errc::resource_busy)
        << restored.error().message;
    EXPECT_EQ(util::internal_error_count(), internal0);
  }
}

// A grow that claims a vertex the job already holds: the job's resources
// stay one entry per vertex, in vertex order, with the units summed.
class MergedResources : public TinyCluster {};

TEST_F(MergedResources, GrowOntoHeldVertexMergesUnits) {
  auto js = make(
      {res("node", 1, {slot(1, {res("memory", 8), res("core", 1)})})}, 100);
  ASSERT_TRUE(js);
  ASSERT_TRUE(trav->match(*js, MatchOp::allocate, 0, 1));
  auto grown = trav->grow(1, *js, 0);
  ASSERT_TRUE(grown) << grown.error().message;
  const auto& held = grown->resources;
  for (std::size_t i = 1; i < held.size(); ++i) {
    EXPECT_LT(held[i - 1].vertex, held[i].vertex) << i;
  }
  const auto memory0 = g.find_by_path("/cluster0/rack0/node0/memory0");
  ASSERT_TRUE(memory0);
  std::int64_t memory_units = 0, cores = 0;
  for (const ResourceUnit& ru : held) {
    const std::string& type = g.type_name(g.vertex(ru.vertex).type);
    if (type == "core") cores += ru.units;
    if (type != "memory") continue;
    EXPECT_EQ(ru.vertex, *memory0);
    EXPECT_TRUE(ru.exclusive);
    memory_units += ru.units;
  }
  EXPECT_EQ(memory_units, 16);
  EXPECT_EQ(cores, 2);
  EXPECT_EQ(trav->find_job(1)->resources.size(), held.size());
  EXPECT_TRUE(trav->verify_filters());
  ASSERT_TRUE(trav->cancel(1));
  EXPECT_TRUE(trav->verify_filters());
}

}  // namespace
}  // namespace fluxion::traverser
