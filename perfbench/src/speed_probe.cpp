#include "speed_probe.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

/// 64-bit LCG; the probe's inputs are the same on every call.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 17;
  }
};

struct Claim {
  std::int64_t end;
  std::int64_t units;
  std::int64_t job;
};

/// Planner-like: a time-ordered map of small heap nodes with inserts,
/// earliest-fit reads and erases of the oldest entries.
std::uint64_t ordered_map_work(Lcg& rng) {
  constexpr int kOps = 600;
  std::map<std::int64_t, Claim> claims;
  std::uint64_t sum = 0;
  for (int i = 0; i < kOps; ++i) {
    const auto t = static_cast<std::int64_t>(rng.next() % 1000000);
    claims.emplace(t, Claim{t + static_cast<std::int64_t>(rng.next() % 5000),
                            static_cast<std::int64_t>(rng.next() % 36), i});
    auto it = claims.lower_bound(
        static_cast<std::int64_t>(rng.next() % 1000000));
    for (int k = 0; k < 4 && it != claims.end(); ++k, ++it) {
      if (it->second.units > 18) {
        sum += static_cast<std::uint64_t>(it->second.job);
      }
    }
    if (claims.size() > kOps / 3) claims.erase(claims.begin());
  }
  return sum + claims.size();
}

/// Traverser-like: depth-first walks of a random tree held as adjacency
/// lists, testing a predicate at each vertex and collecting the matches.
std::uint64_t tree_walk_work(Lcg& rng) {
  constexpr int kVertices = 400;
  std::vector<std::vector<int>> children(kVertices);
  std::vector<std::int64_t> free_units(kVertices);
  for (int v = 1; v < kVertices; ++v) {
    children[rng.next() % static_cast<unsigned>(v)].push_back(v);
  }
  for (auto& f : free_units) f = static_cast<std::int64_t>(rng.next() % 37);
  std::uint64_t sum = 0;
  std::vector<int> stack;
  std::vector<int> picked;
  for (int walk = 0; walk < 12; ++walk) {
    const auto need = static_cast<std::int64_t>(rng.next() % 36);
    stack.assign(1, 0);
    picked.clear();
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (free_units[static_cast<std::size_t>(v)] >= need) picked.push_back(v);
      for (int c : children[static_cast<std::size_t>(v)]) stack.push_back(c);
    }
    for (int v : picked) free_units[static_cast<std::size_t>(v)] -= need / 2;
    sum += picked.size();
  }
  return sum;
}

/// Jobspec/queue-like: short strings built on the fly and looked up in a
/// string-keyed hash map that grows and shrinks.
std::uint64_t string_map_work(Lcg& rng) {
  constexpr int kOps = 400;
  std::unordered_map<std::string, std::int64_t> seen;
  std::uint64_t sum = 0;
  std::string key;
  for (int i = 0; i < kOps; ++i) {
    key = "node";
    key += std::to_string(rng.next() % 4000);
    key += "/core";
    key += std::to_string(rng.next() % 36);
    auto [it, fresh] = seen.try_emplace(key, i);
    sum += fresh ? 1 : static_cast<std::uint64_t>(it->second & 7);
    if ((i & 3) == 0) seen.erase(key);
  }
  return sum + seen.size();
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double probe_seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  Lcg rng{0x9e3779b97f4a7c15ull};
  std::uint64_t h = ordered_map_work(rng);
  h = h * 31 + tree_walk_work(rng);
  h = h * 31 + string_map_work(rng);
  g_sink = h;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
