#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <variant>

#include "util/check.hpp"

namespace fluxion::obs {

const char* op_name(Op op) noexcept {
  static constexpr const char* kNames[kOpCount] = {
      "allocate", "allocate_orelse_reserve", "satisfiability",
      "allocate_with_satisfiability", "cancel"};
  return kNames[static_cast<std::size_t>(op)];
}

namespace {

using PM = PerfMonitor;
using Hist = util::Histogram;

/// What a row reads: a monitor member (in the variant's order), the
/// sources, or one of the two families with code of their own.
enum class Kind : std::uint8_t {
  counter, gauge, histogram, sourced, ops, member_depth
};

/// How `stats` shows a row.
enum class Show : std::uint8_t {
  always,   // always; a histogram's bars under -v once it has samples
  gate,     // always; the section is shown once a gate row is non-zero
  nonzero,  // a histogram's summary and -v bars, once it has samples
  terse,    // a histogram's summary once it has samples, never bars
  hidden,
};

/// One catalogue row; the names are irregular, so each is spelled out.
struct Row {
  const char* section;  // JSON section; the `stats` heading ('_' -> '-')
  const char* key;      // JSON key; "section.key" is the catalogue key
  const char* prom;     // Prometheus name, less "fluxion_" and "_total"
  const char* label;    // `stats` label
  std::variant<Counter PM::*, Gauge PM::*, Hist PM::*, Kind> what;
  Show show = Show::always;

  Kind kind() const {
    return what.index() < 3 ? static_cast<Kind>(what.index())
                            : std::get<Kind>(what);
  }
};

constexpr Kind kSourced = Kind::sourced;
constexpr Show kGate = Show::gate;

const Row kCatalogue[] = {
    {"traverser", "visits", "traverser_visits", "visits", &PM::trav_visits},
    {"traverser", "pruned", "traverser_pruned", "pruned", &PM::trav_pruned},
    {"traverser", "postorder_rejects", "traverser_postorder_rejects",
     "postorder-rejects", &PM::trav_postorder_rejects},
    {"traverser", "rollbacks", "traverser_rollbacks", "rollbacks",
     &PM::trav_rollbacks},
    {"traverser", "match_attempts", "traverser_match_attempts",
     "match-attempts", &PM::trav_match_attempts},
    {"traverser", "status_pruned", "traverser_status_pruned",
     "status-pruned", &PM::trav_status_pruned},
    {"traverser", "first_match_stops", "traverser_first_match_stops",
     "first-match-stops", &PM::trav_first_match_stops},
    {"ops", "", "op", "match ops", Kind::ops},
    {"planner", "point_inserts", "planner_point_inserts", "point-inserts",
     &PM::planner_point_inserts},
    {"planner", "point_removes", "planner_point_removes", "point-removes",
     &PM::planner_point_removes},
    {"planner", "rekeys", "planner_rekeys", "rekeys", &PM::planner_rekeys},
    {"planner", "span_adds", "planner_span_adds", "span-adds",
     &PM::planner_span_adds},
    {"planner", "span_removes", "planner_span_removes", "span-removes",
     &PM::planner_span_removes},
    {"planner", "avail_queries", "planner_avail_queries", "avail-queries",
     &PM::planner_avail_queries},
    {"planner", "avail_time_first", "planner_avail_time_first",
     "avail-time-first", &PM::planner_avail_time_first},
    {"planner", "atf_probes", "planner_atf_probes", "atf-probes",
     &PM::planner_atf_probes},
    {"planner_multi", "span_adds", "planner_multi_span_adds", "span-adds",
     &PM::multi_span_adds},
    {"planner_multi", "span_removes", "planner_multi_span_removes",
     "span-removes", &PM::multi_span_removes},
    {"planner_multi", "avail_time_first", "planner_multi_avail_time_first",
     "avail-time-first", &PM::multi_avail_time_first},
    {"planner_multi", "atf_rounds", "planner_multi_atf_rounds", "atf-rounds",
     &PM::multi_atf_rounds},
    {"sdfu", "commits", "sdfu_commits", "commits", &PM::sdfu_commits},
    {"sdfu", "spans", "sdfu_spans", "spans", &PM::sdfu_spans},
    {"sdfu", "spans_per_commit", "sdfu_spans_per_commit", "spans-per-commit",
     &PM::sdfu_spans_per_commit},
    {"queue", "submitted", "queue_submitted", "submitted", kSourced, kGate},
    {"queue", "schedule_passes", "queue_schedule_passes", "schedule-passes",
     kSourced},
    {"queue", "match_calls", "queue_match_calls", "match-calls", kSourced},
    {"queue", "started_immediately", "queue_started_immediately",
     "started-immediately", kSourced},
    {"queue", "completed", "queue_completed", "completed", kSourced},
    {"queue", "rejected", "queue_rejected", "rejected", kSourced},
    {"queue", "events_fired", "queue_events_fired", "events-fired", kSourced},
    {"queue", "jobs_scanned", "queue_jobs_scanned", "jobs-scanned", kSourced},
    {"queue", "match_skipped", "queue_match_skipped", "match-skipped",
     kSourced},
    {"queue", "match_dominated", "queue_match_dominated", "match-dominated",
     kSourced},
    {"queue", "cache_invalidations", "queue_cache_invalidations",
     "cache-invalidations", kSourced},
    {"queue", "reservations_made", "queue_reservations_made",
     "reservations-made", kSourced},
    {"queue", "reservations_dropped", "queue_reservations_dropped",
     "reservations-dropped", kSourced},
    {"queue", "depth", "queue_depth", "depth", &PM::queue_depth},
    {"queue", "depth_samples", "queue_depth_samples", "",
     &PM::queue_depth_samples, Show::hidden},
    {"queue", "job_wait_s", "job_wait_seconds", "job-wait (sim s)",
     &PM::job_wait},
    {"queue", "job_turnaround_s", "job_turnaround_seconds",
     "job-turnaround (sim s)", &PM::job_turnaround},
    {"queue", "wait_resources_s", "wait_resources_seconds",
     "wait-resources (sim s)", &PM::wait_resources, Show::terse},
    {"queue", "wait_reservation_s", "wait_reservation_seconds",
     "wait-reservation (sim s)", &PM::wait_reservation, Show::terse},
    {"queue", "wait_held_s", "wait_held_seconds", "wait-held (sim s)",
     &PM::wait_held, Show::terse},
    {"queue", "wait_dependency_s", "wait_dependency_seconds",
     "wait-dependency (sim s)", &PM::wait_dependency, Show::terse},
    {"dynamic", "status_flips", "dyn_status_flips", "status-flips",
     &PM::dyn_status_flips, kGate},
    {"dynamic", "evicted_requeued", "dyn_evicted_requeued", "evicted-requeued",
     &PM::dyn_evicted_requeued},
    {"dynamic", "evicted_killed", "dyn_evicted_killed", "evicted-killed",
     &PM::dyn_evicted_killed},
    {"dynamic", "replanned", "dyn_replanned", "replanned", &PM::dyn_replanned},
    {"dynamic", "grow_calls", "dyn_grow_calls", "grow-calls",
     &PM::dyn_grow_calls, kGate},
    {"dynamic", "shrink_calls", "dyn_shrink_calls", "shrink-calls",
     &PM::dyn_shrink_calls, kGate},
    {"dynamic", "vertices_added", "dyn_vertices_added", "vertices-added",
     &PM::dyn_vertices_added},
    {"dynamic", "vertices_removed", "dyn_vertices_removed", "vertices-removed",
     &PM::dyn_vertices_removed},
    {"dynamic", "grow_latency_us", "dyn_grow_latency_us", "grow latency (us)",
     &PM::dyn_grow_latency_us, Show::nonzero},
    {"dynamic", "shrink_latency_us", "dyn_shrink_latency_us",
     "shrink latency (us)", &PM::dyn_shrink_latency_us, Show::nonzero},
    {"hier", "routed", "hier_routed", "routed", kSourced, kGate},
    {"hier", "escalated", "hier_escalated", "escalated", kSourced, kGate},
    {"hier", "stolen", "hier_stolen", "stolen", kSourced},
    {"hier", "steal_passes", "hier_steal_passes", "steal-passes", kSourced},
    {"hier", "route_latency_us", "hier_route_latency_us", "route latency (us)",
     &PM::hier_route_latency_us, Show::nonzero},
    {"hier", "member_depth", "hier_member_depth", "depth", Kind::member_depth,
     kGate},
    {"snapshot", "saves", "snap_saves", "saves", &PM::snap_saves, kGate},
    {"snapshot", "loads", "snap_loads", "loads", &PM::snap_loads, kGate},
    {"snapshot", "bytes", "snap_bytes", "bytes", &PM::snap_bytes},
    {"snapshot", "save_us", "snap_save_us", "save latency (us)",
     &PM::snap_save_us, Show::nonzero},
    {"snapshot", "load_us", "snap_load_us", "load latency (us)",
     &PM::snap_load_us, Show::nonzero},
    {"snapshot", "replica_queries", "replica_queries", "replica-queries",
     &PM::replica_queries, kGate},
    {"snapshot", "replica_stale", "replica_stale", "replica-stale",
     &PM::replica_stale},
};
constexpr std::size_t kRows = std::size(kCatalogue);

/// The row whose "section.key" is `key`; kRows when none is.
std::size_t find_row(std::string_view key) {
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::string_view s = kCatalogue[i].section;
    if (key.size() > s.size() && key.starts_with(s) && key[s.size()] == '.' &&
        key.substr(s.size() + 1) == kCatalogue[i].key) {
      return i;
    }
  }
  return kRows;
}

/// Call f(begin, end) for each run of rows sharing a section.
template <class F>
void for_each_section(F&& f) {
  for (std::size_t b = 0, e = 0; b < kRows; b = e) {
    const std::string_view section = kCatalogue[b].section;
    e = b + 1;
    while (e < kRows && kCatalogue[e].section == section) ++e;
    f(b, e);
  }
}

std::string clamp0(std::int64_t v) { return std::to_string(v < 0 ? 0 : v); }

void kv(std::string& out, std::string_view k, const std::string& v) {
  out += "\"";
  out += k;
  out += "\":" + v;
}

void line(std::string& out, const std::string& label, const std::string& v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "  %-28s %s\n", label.c_str(), v.c_str());
  out += buf;
}

void hist_summary(std::string& out, const char* label, const Hist& h) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "  %-28s n=%zu min=%.3g mean=%.3g p95=%.3g max=%.3g\n", label,
                h.count(), h.min(), h.mean(), h.quantile(0.95), h.max());
  out += buf;
}

std::string prom_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

// --- sources ----------------------------------------------------------------

Source::Source(const std::string* label, std::initializer_list<Tally> tallies)
    : label_(label) {
  for (const auto& [k, value] : tallies) {
    const std::size_t row = find_row(k);
    if (row == kRows || kCatalogue[row].kind() != Kind::sourced) {
      (void)util::internal_error(std::string("obs: no sourced counter ") + k);
      continue;
    }
    slots_.push_back({row, value, *value});
  }
  const std::lock_guard lock(monitor().sources_mu_);
  monitor().sources_.push_back(this);
}

Source::~Source() {
  auto& live = monitor().sources_;
  const std::lock_guard lock(monitor().sources_mu_);
  settle(enabled());
  live.erase(std::find(live.begin(), live.end(), this));
}

void Source::rebaseline() {
  const std::lock_guard lock(monitor().sources_mu_);
  settle(false);
}

void Source::settle(bool fold) {
  for (Slot& s : slots_) {
    if (fold) monitor().retired_[{label(), s.row}] += *s.value - s.base;
    s.base = *s.value;
  }
}

void set_enabled(bool on) {
  if (on == g_metrics_enabled) return;
  const std::lock_guard lock(monitor().sources_mu_);
  for (Source* src : monitor().sources_) src->settle(!on);
  g_metrics_enabled = on;
}

std::map<std::string, std::uint64_t> PerfMonitor::sourced(
    std::size_t row) const {
  std::map<std::string, std::uint64_t> out;
  const std::lock_guard lock(sources_mu_);
  for (const auto& [k, v] : retired_) {
    if (k.second == row) out[k.first] += v;
  }
  for (const Source* src : sources_) {
    for (const Source::Slot& s : src->slots_) {
      if (s.row == row) out[src->label()] += enabled() ? *s.value - s.base : 0;
    }
  }
  return out;
}

std::uint64_t PerfMonitor::count(std::size_t row) const {
  const Row& r = kCatalogue[row];
  if (r.kind() == Kind::counter) return (this->*std::get<0>(r.what)).value();
  std::uint64_t total = 0;
  for (const auto& [label, v] : sourced(row)) total += v;
  return total;
}

std::uint64_t PerfMonitor::value(std::string_view k) const {
  const std::size_t row = find_row(k);
  return row == kRows ? 0 : count(row);
}

void PerfMonitor::reset() {
  for (const Row& r : kCatalogue) {
    if (r.kind() == Kind::counter) (this->*std::get<0>(r.what)).reset();
    if (r.kind() == Kind::gauge) (this->*std::get<1>(r.what)).reset();
    if (r.kind() == Kind::histogram) (this->*std::get<2>(r.what)).reset();
  }
  for (auto& o : ops) {
    o.calls.reset();
    o.failures.reset();
    o.latency_us.reset();
  }
  for (auto& g : hier_member_depth) g.reset();
  const std::lock_guard lock(sources_mu_);
  retired_.clear();
  for (Source* src : sources_) src->settle(false);
}

// --- renderings --------------------------------------------------------------

std::string PerfMonitor::json() const {
  std::string out = "{";
  for_each_section([&](std::size_t b, std::size_t e) {
    if (b > 0) out += ",";
    kv(out, kCatalogue[b].section, "{");
    for (std::size_t i = b; i < e; ++i) {
      const Row& r = kCatalogue[i];
      if (i > b) out += ",";
      switch (r.kind()) {
        case Kind::counter:
        case Kind::sourced:
          kv(out, r.key, std::to_string(count(i)));
          break;
        case Kind::gauge: {
          const Gauge& g = this->*std::get<1>(r.what);
          kv(out, r.key, clamp0(g.value()) + ",\"" + r.key + "_max\":" +
                             clamp0(g.max()));
          break;
        }
        case Kind::histogram:
          kv(out, r.key, (this->*std::get<2>(r.what)).json());
          break;
        case Kind::ops:
          for (std::size_t o = 0; o < kOpCount; ++o) {
            if (o > 0) out += ",";
            kv(out, op_name(static_cast<Op>(o)),
               "{\"calls\":" + std::to_string(ops[o].calls.value()) +
                   ",\"failures\":" + std::to_string(ops[o].failures.value()) +
                   ",\"latency_us\":" + ops[o].latency_us.json() + "}");
          }
          break;
        case Kind::member_depth:
          for (const bool max : {false, true}) {
            std::string list;
            for (const Gauge& g : hier_member_depth) {
              if (!list.empty()) list += ',';
              list += std::to_string(max ? g.max() : g.value());
            }
            if (max) out += ",";
            kv(out, max ? "member_depth_max" : r.key, "[" + list + "]");
          }
          break;
      }
    }
    out += "}";
  });
  return out + "}";
}

std::string PerfMonitor::prometheus() const {
  std::string out;
  const auto type = [&](const std::string& name, const char* kind) {
    out += "# TYPE " + name + " " + kind + "\n";
  };
  const auto sample = [&](const std::string& name, const std::string& labels,
                          const std::string& v) {
    out += name + (labels.empty() ? "" : "{" + labels + "}") + " " + v + "\n";
  };
  // One histogram series (cumulative buckets / sum / count). Underflow
  // samples are folded into the first bucket — le means "<=", and every
  // underflow sample is below the first boundary.
  const auto series = [&](const std::string& name, const Hist& h,
                          const std::string& labels) {
    const std::string le = (labels.empty() ? "" : labels + ",") + "le=\"";
    std::uint64_t cum = h.underflow();
    for (std::size_t i = 0; i < h.bins().size(); ++i) {
      cum += h.bins()[i];
      sample(name + "_bucket", le + prom_num(h.bin_lo(i + 1)) + "\"",
             std::to_string(cum));
    }
    sample(name + "_bucket", le + "+Inf\"", std::to_string(h.count()));
    sample(name + "_sum", labels,
           prom_num(h.mean() * static_cast<double>(h.count())));
    sample(name + "_count", labels, std::to_string(h.count()));
  };
  const auto op_label = [](std::size_t o) {
    return std::string("op=\"") + op_name(static_cast<Op>(o)) + "\"";
  };

  for (std::size_t i = 0; i < kRows; ++i) {
    const Row& r = kCatalogue[i];
    const std::string name = std::string("fluxion_") + r.prom;
    switch (r.kind()) {
      case Kind::counter:
        type(name + "_total", "counter");
        sample(name + "_total", "", std::to_string(count(i)));
        break;
      case Kind::sourced: {
        // One sample per instance label; the unlabelled instance renders
        // bare, so a flat run reads as it always has.
        type(name + "_total", "counter");
        const auto by_label = sourced(i);
        if (by_label.empty()) sample(name + "_total", "", "0");
        for (const auto& [label, v] : by_label) {
          sample(name + "_total",
                 label.empty() ? "" : "instance=\"" + label + "\"",
                 std::to_string(v));
        }
        break;
      }
      case Kind::gauge:
        for (const bool max : {false, true}) {
          const Gauge& g = this->*std::get<1>(r.what);
          type(name + (max ? "_max" : ""), "gauge");
          sample(name + (max ? "_max" : ""), "",
                 std::to_string(max ? g.max() : g.value()));
        }
        break;
      case Kind::histogram:
        type(name, "histogram");
        series(name, this->*std::get<2>(r.what), "");
        break;
      case Kind::ops:
        type(name + "_calls_total", "counter");
        for (std::size_t o = 0; o < kOpCount; ++o) {
          sample(name + "_calls_total", op_label(o),
                 std::to_string(ops[o].calls.value()));
        }
        type(name + "_failures_total", "counter");
        for (std::size_t o = 0; o < kOpCount; ++o) {
          sample(name + "_failures_total", op_label(o),
                 std::to_string(ops[o].failures.value()));
        }
        type(name + "_latency_us", "histogram");
        for (std::size_t o = 0; o < kOpCount; ++o) {
          series(name + "_latency_us", ops[o].latency_us, op_label(o));
        }
        break;
      case Kind::member_depth:
        for (const bool max : {false, true}) {
          if (hier_member_depth.empty()) break;
          type(name + (max ? "_max" : ""), "gauge");
          for (std::size_t m = 0; m < hier_member_depth.size(); ++m) {
            const Gauge& g = hier_member_depth[m];
            sample(name + (max ? "_max" : ""),
                   "member=\"" + std::to_string(m) + "\"",
                   std::to_string(max ? g.max() : g.value()));
          }
        }
        break;
    }
  }
  return out;
}

std::string PerfMonitor::render(bool verbose) const {
  std::string out;
  for_each_section([&](std::size_t b, std::size_t e) {
    // A section with gate rows is shown once one of them has counted.
    bool gated = false, open = false;
    for (std::size_t i = b; i < e; ++i) {
      if (kCatalogue[i].show != Show::gate) continue;
      gated = true;
      open = open || (kCatalogue[i].kind() == Kind::member_depth
                          ? !hier_member_depth.empty()
                          : count(i) > 0);
    }
    if (gated && !open) return;
    std::string heading = kCatalogue[b].kind() == Kind::ops
                              ? kCatalogue[b].label
                              : kCatalogue[b].section;
    std::replace(heading.begin(), heading.end(), '_', '-');
    out += heading + ":\n";
    for (std::size_t i = b; i < e; ++i) {
      const Row& r = kCatalogue[i];
      switch (r.kind()) {
        case Kind::counter:
        case Kind::sourced:
          line(out, r.label, std::to_string(count(i)));
          break;
        case Kind::gauge: {
          const Gauge& g = this->*std::get<1>(r.what);
          line(out, r.label, clamp0(g.value()));
          line(out, std::string(r.label) + "-max", clamp0(g.max()));
          break;
        }
        case Kind::histogram: {
          const Hist& h = this->*std::get<2>(r.what);
          if (r.show == Show::hidden) break;
          if (r.show != Show::always && h.count() == 0) break;
          hist_summary(out, r.label, h);
          if (verbose && r.show != Show::terse && h.count() > 0) {
            out += h.render();
          }
          break;
        }
        case Kind::ops:
          for (std::size_t o = 0; o < kOpCount; ++o) {
            const OpMetrics& m = ops[o];
            if (m.calls.value() == 0) continue;
            line(out, op_name(static_cast<Op>(o)),
                 "calls=" + std::to_string(m.calls.value()) +
                     " failures=" + std::to_string(m.failures.value()));
            hist_summary(out, "  latency (us)", m.latency_us);
            if (verbose && m.latency_us.count() > 0) {
              out += m.latency_us.render();
            }
          }
          break;
        case Kind::member_depth:
          for (std::size_t m = 0; m < hier_member_depth.size(); ++m) {
            line(out, "member " + std::to_string(m) + " " + r.label,
                 clamp0(hier_member_depth[m].value()));
          }
          break;
      }
    }
  });
  return out;
}

}  // namespace fluxion::obs
