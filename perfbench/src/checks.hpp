// Helpers shared by the benchmark binary and its self-tests: order
// statistics, a placement digest, an independent capacity oracle and a
// key-path reader for the obs metrics document.
//
// The oracle shares no code with the engine it checks: it sees only
// bookings (a resource key, its capacity, the units taken, exclusivity
// and a half-open simulated-time window) and sweeps them per key.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.hpp"

namespace perfbench {

/// Quantile q in [0, 1] with linear interpolation between closest ranks
/// (numpy's default). Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// FNV-1a over a stream of integers.
class Digest {
 public:
  void add(std::int64_t x) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// One job's claim on one resource for [start, end).
struct Booking {
  std::int64_t key;       // resource identity, unique across the machine
  std::int64_t capacity;  // units the resource holds
  std::int64_t units;     // units this job takes
  bool exclusive;         // no other job may share the resource
  std::int64_t start;
  std::int64_t end;
  std::int64_t job;
};

/// Empty when no resource is over-committed at any instant and no
/// exclusive booking overlaps another booking of the same resource;
/// otherwise a description of the first violation found.
std::string capacity_violation(std::vector<Booking> bookings);

/// Flatten the numeric leaves of a JSON document into "a.b.c" keys
/// (arrays are skipped). Used to read obs::monitor().json() by key.
fluxion::util::Expected<std::map<std::string, double>> flatten_json_numbers(
    std::string_view json);

/// Shortest round-trip decimal rendering of a double.
std::string num(double x);

}  // namespace perfbench
