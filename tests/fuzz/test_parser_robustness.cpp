// Robustness: every parser must reject (never crash, hang or leak
// invariants on) mutated and adversarial inputs. Deterministic mutation
// fuzzing — byte flips, truncations, duplications — over valid seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "grug/grug.hpp"
#include "jobspec/jobspec.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "writers/jgf_reader.hpp"
#include "util/rng.hpp"
#include "yaml/json.hpp"
#include "yaml/yaml.hpp"

namespace fluxion {
namespace {

const std::vector<std::string>& yaml_seeds() {
  static const std::vector<std::string> seeds = {
      "version: 1\nresources:\n  - type: slot\n    count: 2\n    with:\n"
      "      - type: core\n        count: 10\n",
      "a: [1, {b: c}, 'd']\ne:\n  - f\n  - g: h\n",
      "k: {x: 1, y: [2, 3]}\n# comment\nz: ~\n",
  };
  return seeds;
}

std::string mutate(const std::string& seed, util::Rng& rng) {
  std::string s = seed;
  switch (rng.uniform(0, 4)) {
    case 0:  // flip a byte
      if (!s.empty()) {
        s[rng.index(s.size())] =
            static_cast<char>(rng.uniform(1, 126));
      }
      break;
    case 1:  // truncate
      if (!s.empty()) s.resize(rng.index(s.size()));
      break;
    case 2:  // duplicate a slice
      if (s.size() > 2) {
        const auto from = rng.index(s.size() - 1);
        const auto len = rng.index(s.size() - from) + 1;
        s.insert(rng.index(s.size()), s.substr(from, len));
      }
      break;
    case 3:  // inject structural characters
      s.insert(rng.index(s.size() + 1),
               std::string(1, "{}[]:-#'\"\n "[rng.index(12)]));
      break;
    default:  // delete a slice
      if (s.size() > 2) {
        const auto from = rng.index(s.size() - 1);
        s.erase(from, rng.index(s.size() - from) + 1);
      }
      break;
  }
  return s;
}

TEST(ParserRobustness, YamlNeverCrashes) {
  util::Rng rng(1);
  for (int i = 0; i < 3000; ++i) {
    const auto& seed = yaml_seeds()[rng.index(yaml_seeds().size())];
    const std::string input = mutate(seed, rng);
    auto r = yaml::parse(input);  // success or error; just no crash
    if (r && r->is_mapping()) {
      (void)r->get("resources");
    }
  }
}

TEST(ParserRobustness, JobspecNeverCrashes) {
  util::Rng rng(2);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = mutate(yaml_seeds()[0], rng);
    auto js = jobspec::Jobspec::from_yaml(input);
    if (js) {
      // Anything accepted must satisfy the structural rules.
      EXPECT_TRUE(js->validate());
      (void)js->aggregate_counts();
      (void)js->to_yaml();
    }
  }
}

TEST(ParserRobustness, GrugNeverCrashes) {
  const std::string seed =
      "filters core\nfilter-at cluster\n"
      "cluster count=1\n  rack count=2\n    node count=3 size=1\n";
  util::Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = mutate(seed, rng);
    auto r = grug::parse(input);
    if (r) {
      EXPECT_GE(grug::vertex_count(*r), 1);
    }
  }
}

TEST(ParserRobustness, JsonNeverCrashes) {
  const std::string seed =
      R"({"graph":{"nodes":[{"id":"0","metadata":{"type":"node"}}],)"
      R"("edges":[]}})";
  util::Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = mutate(seed, rng);
    (void)yaml::parse_json(input);
  }
}

TEST(ParserRobustness, TraceNeverCrashes) {
  const std::string seed = "# t\n4 100\n1 50\n256 43200\n";
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = mutate(seed, rng);
    auto r = sim::parse_trace(input);
    if (r) {
      for (const auto& j : *r) {
        EXPECT_GE(j.nodes, 1);
        EXPECT_GE(j.duration, 1);
      }
    }
  }
}

TEST(ParserRobustness, JgfWithStatusNeverCrashes) {
  // Corpus seed carrying the dynamic-resource status metadata: whatever
  // the reader accepts must still validate as a graph.
  const std::string seed =
      R"({"graph":{"nodes":[)"
      R"({"id":"0","metadata":{"type":"cluster","name":"cluster0",)"
      R"("size":1,"paths":{"containment":"/cluster0"}}},)"
      R"({"id":"1","metadata":{"type":"node","name":"node0","size":1,)"
      R"("status":"drained","paths":{"containment":"/cluster0/node0"}}},)"
      R"({"id":"2","metadata":{"type":"node","name":"node1","size":1,)"
      R"("status":"down","paths":{"containment":"/cluster0/node1"}}}],)"
      R"("edges":[{"source":"0","target":"1"},)"
      R"({"source":"0","target":"2"}]}})";
  ASSERT_TRUE(writers::read_jgf(seed, 0, 1000));  // the seed itself parses
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = mutate(seed, rng);
    auto r = writers::read_jgf(input, 0, 1000);
    if (r) {
      EXPECT_TRUE(r->graph->validate());
    }
  }
}

TEST(ParserRobustness, JgfUnknownEdgeEndpointsNamed) {
  // The unknown-endpoint diagnostic must name the offending id(s):
  // against a machine-generated JGF with thousands of edges, an
  // unattributed "unknown node" is undebuggable.
  const std::string prefix =
      R"({"graph":{"nodes":[)"
      R"({"id":"0","metadata":{"type":"cluster","name":"c0","size":1}},)"
      R"({"id":"1","metadata":{"type":"node","name":"n0","size":1}}],)";
  {
    auto r = writers::read_jgf(
        prefix + R"("edges":[{"source":"0","target":"ghost"}]}})", 0, 1000);
    ASSERT_FALSE(r);
    EXPECT_NE(r.error().message.find("'ghost'"), std::string::npos)
        << r.error().message;
  }
  {
    auto r = writers::read_jgf(
        prefix + R"("edges":[{"source":"bad-src","target":"1"}]}})", 0, 1000);
    ASSERT_FALSE(r);
    EXPECT_NE(r.error().message.find("'bad-src'"), std::string::npos)
        << r.error().message;
  }
  {
    auto r = writers::read_jgf(
        prefix + R"("edges":[{"source":"lhs","target":"rhs"}]}})", 0, 1000);
    ASSERT_FALSE(r);
    EXPECT_NE(r.error().message.find("'lhs'"), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("'rhs'"), std::string::npos)
        << r.error().message;
  }
}

TEST(ParserRobustness, JgfMalformedEdgesNeverCrash) {
  // Mutation fuzzing over seeds that are *already* malformed (dangling
  // endpoints, missing fields, self-edges): the reader must keep
  // rejecting cleanly, never crash, and anything it does accept must
  // validate as a graph.
  const std::vector<std::string> seeds = {
      R"({"graph":{"nodes":[{"id":"0","metadata":{"type":"cluster",)"
      R"("name":"c0","size":1}}],)"
      R"("edges":[{"source":"0","target":"missing"}]}})",
      R"({"graph":{"nodes":[{"id":"0","metadata":{"type":"cluster",)"
      R"("name":"c0","size":1}}],"edges":[{"source":"0"}]}})",
      R"({"graph":{"nodes":[{"id":"0","metadata":{"type":"cluster",)"
      R"("name":"c0","size":1}}],"edges":[{"source":"0","target":"0"}]}})",
  };
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = mutate(seeds[rng.index(seeds.size())], rng);
    auto r = writers::read_jgf(input, 0, 1000);
    if (r) {
      EXPECT_TRUE(r->graph->validate());
    }
  }
}

TEST(ParserRobustness, JgfContainmentCyclesRejectedAndNamed) {
  // Each used to overflow the stack in repath before the reader's
  // after-the-fact cycle check could run.
  const std::string node0 =
      R"({"id":"0","metadata":{"type":"cluster","name":"c0","size":1}})";
  const std::string node1 =
      R"({"id":"1","metadata":{"type":"node","name":"n0","size":1}})";
  {
    auto r = writers::read_jgf(
        R"({"graph":{"nodes":[)" + node0 +
            R"(],"edges":[{"source":"0","target":"0"}]}})",
        0, 1000);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, util::Errc::invalid_argument);
    EXPECT_NE(r.error().message.find(
                  "edge '0' -> '0' would form a containment cycle"),
              std::string::npos)
        << r.error().message;
  }
  {
    auto r = writers::read_jgf(
        R"({"graph":{"nodes":[)" + node0 + "," + node1 +
            R"(],"edges":[{"source":"0","target":"1"},)"
            R"({"source":"1","target":"0"}]}})",
        0, 1000);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, util::Errc::invalid_argument);
    EXPECT_NE(r.error().message.find(
                  "edge '1' -> '0' would form a containment cycle"),
              std::string::npos)
        << r.error().message;
  }
}

TEST(ParserRobustness, JgfNamesAreOnePathComponent) {
  // A name is one component of the vertex's path: an empty one, or one
  // with a '/', would make the path name another vertex or none.
  const auto graph = [](const std::string& name_field) {
    return R"({"graph":{"nodes":[)"
           R"({"id":"0","metadata":{"type":"cluster","name":"c0"}},)"
           R"({"id":"n1","metadata":{"type":"node")" +
           name_field + R"(}}],"edges":[{"source":"0","target":"n1"}]}})";
  };
  ASSERT_TRUE(writers::read_jgf(graph(R"(,"name":"node0")"), 0, 1000));
  for (const std::string name : {"", "a/b", "/", "node0/"}) {
    auto r = writers::read_jgf(graph(R"(,"name":")" + name + R"(")"), 0,
                               1000);
    ASSERT_FALSE(r) << "name '" << name << "'";
    EXPECT_EQ(r.error().code, util::Errc::invalid_argument);
    EXPECT_NE(r.error().message.find("node 'n1' has name '" + name + "'"),
              std::string::npos)
        << r.error().message;
  }
  // Without a name the id stands in, under the same rule.
  auto r = writers::read_jgf(
      R"({"graph":{"nodes":[{"id":"x/y","metadata":{"type":"cluster"}}]}})",
      0, 1000);
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().message.find("node 'x/y' has name 'x/y'"),
            std::string::npos)
      << r.error().message;
}

TEST(ParserRobustness, JgfContainmentDepthLimited) {
  // Every vertex stores its full path, so a long chain costs O(depth^2)
  // bytes; one level past graph::kMaxContainmentDepth is refused at the
  // edge that overreaches, whichever order the edges are listed in.
  auto chain = [](std::size_t levels, bool bottom_up) {
    std::string nodes;
    std::vector<std::string> edges;
    for (std::size_t i = 0; i <= levels; ++i) {
      const std::string id = std::to_string(i);
      if (i != 0) nodes += ',';
      nodes += R"({"id":")" + id +
               R"(","metadata":{"type":"node","name":"n)" + id + R"("}})";
      if (i < levels) {
        edges.push_back(R"({"source":")" + id + R"(","target":")" +
                        std::to_string(i + 1) + R"("})");
      }
    }
    if (bottom_up) std::reverse(edges.begin(), edges.end());
    std::string out = R"({"graph":{"nodes":[)" + nodes + R"(],"edges":[)";
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i != 0) out += ',';
      out += edges[i];
    }
    return out + "]}}";
  };
  const std::size_t limit = graph::kMaxContainmentDepth;
  for (const bool bottom_up : {false, true}) {
    auto at_limit = writers::read_jgf(chain(limit, bottom_up), 0, 1000);
    ASSERT_TRUE(at_limit) << at_limit.error().message;
    EXPECT_EQ(at_limit->graph->vertex(at_limit->root).name, "n0");
    EXPECT_TRUE(at_limit->graph->validate());

    auto over = writers::read_jgf(chain(limit + 1, bottom_up), 0, 1000);
    ASSERT_FALSE(over);
    EXPECT_EQ(over.error().code, util::Errc::invalid_argument);
    // Top-down the last edge overreaches; bottom-up the first edge that
    // hangs the full-height chain under n0.
    const std::string edge =
        bottom_up ? "edge '0' -> '1'"
                  : "edge '" + std::to_string(limit) + "' -> '" +
                        std::to_string(limit + 1) + "'";
    EXPECT_NE(over.error().message.find(
                  edge + " would nest containment deeper than " +
                  std::to_string(limit) + " levels"),
              std::string::npos)
        << over.error().message;
  }
}

TEST(ParserRobustness, DeepNestingRejectedByReaders) {
  // 1 MB of brackets used to overflow the JSON and YAML parsers under
  // these readers (the parsers' own cases are in tests/yaml).
  const std::string brackets(1 << 20, '[');
  auto jgf = writers::read_jgf(brackets, 0, 1000);
  ASSERT_FALSE(jgf);
  EXPECT_EQ(jgf.error().code, util::Errc::parse_error);
  EXPECT_FALSE(jobspec::Jobspec::from_yaml("resources: " + brackets));
}

TEST(ParserRobustness, ScenarioNeverCrashes) {
  const std::string seed =
      "2 100\n1 50 10\n"
      "@ 500 status /cluster0/rack0/node0 down requeue\n"
      "@ 600 grow /cluster0 rack.grug\n"
      "@ 700 shrink /cluster0/rack1 kill\n";
  ASSERT_TRUE(sim::parse_scenario(seed));
  util::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = mutate(seed, rng);
    auto r = sim::parse_scenario(input);
    if (r) {
      // Accepted scenarios must survive a format/parse round-trip.
      EXPECT_TRUE(sim::parse_scenario(sim::format_scenario(*r)));
    }
  }
}

TEST(ParserRobustness, JobspecRoundTripStability) {
  // Whatever from_yaml accepts, to_yaml must re-parse to the same shape.
  util::Rng rng(6);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string input = mutate(yaml_seeds()[0], rng);
    auto js = jobspec::Jobspec::from_yaml(input);
    if (!js) continue;
    ++accepted;
    auto again = jobspec::Jobspec::from_yaml(js->to_yaml());
    ASSERT_TRUE(again) << js->to_yaml();
    EXPECT_EQ(again->to_yaml(), js->to_yaml());
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace fluxion
