#include "checks.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <tuple>

#include "yaml/json.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string capacity_violation(std::vector<Booking> bookings) {
  for (const Booking& b : bookings) {
    if (b.units <= 0 || b.end <= b.start) {
      return "job " + std::to_string(b.job) + " holds resource " +
             std::to_string(b.key) + " with an empty claim or window";
    }
  }
  std::sort(bookings.begin(), bookings.end(),
            [](const Booking& a, const Booking& b) {
              return std::tie(a.key, a.start) < std::tie(b.key, b.start);
            });
  // Per key: sweep starts and ends; at equal times ends go first, since
  // windows are half-open.
  struct Edge {
    std::int64_t t;
    int delta;  // -1 end, +1 start
    const Booking* b;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < bookings.size();) {
    std::size_t j = i;
    edges.clear();
    while (j < bookings.size() && bookings[j].key == bookings[i].key) {
      edges.push_back({bookings[j].start, +1, &bookings[j]});
      edges.push_back({bookings[j].end, -1, &bookings[j]});
      ++j;
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return std::tie(a.t, a.delta) < std::tie(b.t, b.delta);
    });
    std::int64_t units = 0;
    std::int64_t active = 0;
    std::int64_t exclusive = 0;
    for (const Edge& e : edges) {
      units += e.delta * e.b->units;
      active += e.delta;
      if (e.b->exclusive) exclusive += e.delta;
      if (e.delta < 0) continue;
      if (units > e.b->capacity) {
        return "resource " + std::to_string(e.b->key) +
               " over-committed at t=" + std::to_string(e.t) +
               ": " + std::to_string(units) + " of " +
               std::to_string(e.b->capacity) + " units (job " +
               std::to_string(e.b->job) + ")";
      }
      if (exclusive > 0 && active > 1) {
        return "resource " + std::to_string(e.b->key) +
               " shared while held exclusively at t=" +
               std::to_string(e.t) + " (job " + std::to_string(e.b->job) +
               ")";
      }
    }
    i = j;
  }
  return {};
}

namespace {

void flatten(const fluxion::yaml::Node& node, const std::string& prefix,
             std::map<std::string, double>& out) {
  if (node.is_mapping()) {
    for (const auto& [key, child] : node.entries()) {
      flatten(child, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (node.is_scalar()) {
    if (const auto d = node.as_double()) out[prefix] = *d;
  }
}

}  // namespace

fluxion::util::Expected<std::map<std::string, double>> flatten_json_numbers(
    std::string_view json) {
  auto doc = fluxion::yaml::parse_json(json);
  if (!doc) return doc.error();
  std::map<std::string, double> out;
  flatten(*doc, "", out);
  return out;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
