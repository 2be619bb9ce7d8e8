#include "obs/metrics.hpp"

#include <cstdio>

namespace fluxion::obs {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::allocate:
      return "allocate";
    case Op::allocate_orelse_reserve:
      return "allocate_orelse_reserve";
    case Op::satisfiability:
      return "satisfiability";
    case Op::allocate_with_satisfiability:
      return "allocate_with_satisfiability";
    case Op::cancel:
      return "cancel";
  }
  return "unknown";
}

void PerfMonitor::reset() {
  trav_visits.reset();
  trav_pruned.reset();
  trav_postorder_rejects.reset();
  trav_rollbacks.reset();
  trav_match_attempts.reset();
  trav_status_pruned.reset();
  trav_first_match_stops.reset();
  for (auto& o : ops) {
    o.calls.reset();
    o.failures.reset();
    o.latency_us.reset();
  }
  planner_point_inserts.reset();
  planner_point_removes.reset();
  planner_rekeys.reset();
  planner_span_adds.reset();
  planner_span_removes.reset();
  planner_avail_queries.reset();
  planner_avail_time_first.reset();
  planner_atf_probes.reset();
  multi_span_adds.reset();
  multi_span_removes.reset();
  multi_avail_time_first.reset();
  multi_atf_rounds.reset();
  sdfu_commits.reset();
  sdfu_spans.reset();
  sdfu_spans_per_commit.reset();
  queue_submitted.reset();
  queue_schedule_passes.reset();
  queue_match_calls.reset();
  queue_started_immediately.reset();
  queue_completed.reset();
  queue_rejected.reset();
  queue_events_fired.reset();
  queue_jobs_scanned.reset();
  queue_match_skipped.reset();
  queue_cache_invalidations.reset();
  queue_reservations_made.reset();
  queue_reservations_dropped.reset();
  queue_depth.reset();
  queue_depth_samples.reset();
  job_wait.reset();
  job_turnaround.reset();
  wait_resources.reset();
  wait_reservation.reset();
  wait_held.reset();
  wait_dependency.reset();
  dyn_status_flips.reset();
  dyn_evicted_requeued.reset();
  dyn_evicted_killed.reset();
  dyn_replanned.reset();
  dyn_grow_calls.reset();
  dyn_shrink_calls.reset();
  dyn_vertices_added.reset();
  dyn_vertices_removed.reset();
  dyn_grow_latency_us.reset();
  dyn_shrink_latency_us.reset();
  hier_routed.reset();
  hier_escalated.reset();
  hier_stolen.reset();
  hier_steal_passes.reset();
  hier_route_latency_us.reset();
  for (auto& g : hier_member_depth) g.reset();
  snap_saves.reset();
  snap_loads.reset();
  snap_bytes.reset();
  snap_save_us.reset();
  snap_load_us.reset();
  replica_queries.reset();
  replica_stale.reset();
}

namespace {

void kv(std::string& out, const char* key, std::uint64_t v, bool first = false) {
  if (!first) out += ",";
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void kv_hist(std::string& out, const char* key, const util::Histogram& h) {
  out += ",\"";
  out += key;
  out += "\":";
  out += h.json();
}

void line(std::string& out, const char* label, std::uint64_t v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "  %-28s %llu\n", label,
                static_cast<unsigned long long>(v));
  out += buf;
}

void hist_summary(std::string& out, const char* label,
                  const util::Histogram& h) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "  %-28s n=%zu min=%.3g mean=%.3g p95=%.3g max=%.3g\n", label,
                h.count(), h.min(), h.mean(), h.quantile(0.95), h.max());
  out += buf;
}

}  // namespace

std::string PerfMonitor::json() const {
  std::string out = "{\"traverser\":{";
  kv(out, "visits", trav_visits.value(), true);
  kv(out, "pruned", trav_pruned.value());
  kv(out, "postorder_rejects", trav_postorder_rejects.value());
  kv(out, "rollbacks", trav_rollbacks.value());
  kv(out, "match_attempts", trav_match_attempts.value());
  kv(out, "status_pruned", trav_status_pruned.value());
  kv(out, "first_match_stops", trav_first_match_stops.value());
  out += "},\"ops\":{";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += op_name(static_cast<Op>(i));
    out += "\":{";
    kv(out, "calls", ops[i].calls.value(), true);
    kv(out, "failures", ops[i].failures.value());
    kv_hist(out, "latency_us", ops[i].latency_us);
    out += "}";
  }
  out += "},\"planner\":{";
  kv(out, "point_inserts", planner_point_inserts.value(), true);
  kv(out, "point_removes", planner_point_removes.value());
  kv(out, "rekeys", planner_rekeys.value());
  kv(out, "span_adds", planner_span_adds.value());
  kv(out, "span_removes", planner_span_removes.value());
  kv(out, "avail_queries", planner_avail_queries.value());
  kv(out, "avail_time_first", planner_avail_time_first.value());
  kv(out, "atf_probes", planner_atf_probes.value());
  out += "},\"planner_multi\":{";
  kv(out, "span_adds", multi_span_adds.value(), true);
  kv(out, "span_removes", multi_span_removes.value());
  kv(out, "avail_time_first", multi_avail_time_first.value());
  kv(out, "atf_rounds", multi_atf_rounds.value());
  out += "},\"sdfu\":{";
  kv(out, "commits", sdfu_commits.value(), true);
  kv(out, "spans", sdfu_spans.value());
  kv_hist(out, "spans_per_commit", sdfu_spans_per_commit);
  out += "},\"queue\":{";
  kv(out, "submitted", queue_submitted.value(), true);
  kv(out, "schedule_passes", queue_schedule_passes.value());
  kv(out, "match_calls", queue_match_calls.value());
  kv(out, "started_immediately", queue_started_immediately.value());
  kv(out, "completed", queue_completed.value());
  kv(out, "rejected", queue_rejected.value());
  kv(out, "events_fired", queue_events_fired.value());
  kv(out, "jobs_scanned", queue_jobs_scanned.value());
  kv(out, "match_skipped", queue_match_skipped.value());
  kv(out, "cache_invalidations", queue_cache_invalidations.value());
  kv(out, "reservations_made", queue_reservations_made.value());
  kv(out, "reservations_dropped", queue_reservations_dropped.value());
  kv(out, "depth", static_cast<std::uint64_t>(
                       queue_depth.value() < 0 ? 0 : queue_depth.value()));
  kv(out, "depth_max", static_cast<std::uint64_t>(
                           queue_depth.max() < 0 ? 0 : queue_depth.max()));
  kv_hist(out, "depth_samples", queue_depth_samples);
  kv_hist(out, "job_wait_s", job_wait);
  kv_hist(out, "job_turnaround_s", job_turnaround);
  kv_hist(out, "wait_resources_s", wait_resources);
  kv_hist(out, "wait_reservation_s", wait_reservation);
  kv_hist(out, "wait_held_s", wait_held);
  kv_hist(out, "wait_dependency_s", wait_dependency);
  out += "},\"dynamic\":{";
  kv(out, "status_flips", dyn_status_flips.value(), true);
  kv(out, "evicted_requeued", dyn_evicted_requeued.value());
  kv(out, "evicted_killed", dyn_evicted_killed.value());
  kv(out, "replanned", dyn_replanned.value());
  kv(out, "grow_calls", dyn_grow_calls.value());
  kv(out, "shrink_calls", dyn_shrink_calls.value());
  kv(out, "vertices_added", dyn_vertices_added.value());
  kv(out, "vertices_removed", dyn_vertices_removed.value());
  kv_hist(out, "grow_latency_us", dyn_grow_latency_us);
  kv_hist(out, "shrink_latency_us", dyn_shrink_latency_us);
  out += "},\"hier\":{";
  kv(out, "routed", hier_routed.value(), true);
  kv(out, "escalated", hier_escalated.value());
  kv(out, "stolen", hier_stolen.value());
  kv(out, "steal_passes", hier_steal_passes.value());
  kv_hist(out, "route_latency_us", hier_route_latency_us);
  out += ",\"member_depth\":[";
  for (std::size_t i = 0; i < hier_member_depth.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(hier_member_depth[i].value());
  }
  out += "],\"member_depth_max\":[";
  for (std::size_t i = 0; i < hier_member_depth.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(hier_member_depth[i].max());
  }
  out += "]},\"snapshot\":{";
  kv(out, "saves", snap_saves.value(), true);
  kv(out, "loads", snap_loads.value());
  kv(out, "bytes", snap_bytes.value());
  kv_hist(out, "save_us", snap_save_us);
  kv_hist(out, "load_us", snap_load_us);
  kv(out, "replica_queries", replica_queries.value());
  kv(out, "replica_stale", replica_stale.value());
  out += "}}";
  return out;
}

namespace {

std::string prom_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string PerfMonitor::prometheus() const {
  std::string out;
  auto counter = [&](const char* name, std::uint64_t v) {
    std::string full = std::string("fluxion_") + name + "_total";
    out += "# TYPE " + full + " counter\n";
    out += full + " " + std::to_string(v) + "\n";
  };
  auto gauge = [&](const char* name, std::int64_t v) {
    std::string full = std::string("fluxion_") + name;
    out += "# TYPE " + full + " gauge\n";
    out += full + " " + std::to_string(v) + "\n";
  };
  // One histogram series (cumulative buckets / sum / count). Underflow
  // samples are folded into the first bucket — le means "<=", and every
  // underflow sample is below the first boundary.
  auto hist_series = [&](const std::string& full, const util::Histogram& h,
                         const std::string& labels) {
    const auto& bins = h.bins();
    std::uint64_t cum = h.underflow();
    auto bucket = [&](const std::string& le, std::uint64_t c) {
      out += full + "_bucket{";
      if (!labels.empty()) out += labels + ",";
      out += "le=\"" + le + "\"} " + std::to_string(c) + "\n";
    };
    for (std::size_t i = 0; i < bins.size(); ++i) {
      cum += bins[i];
      bucket(prom_num(h.bin_lo(i + 1)), cum);
    }
    bucket("+Inf", static_cast<std::uint64_t>(h.count()));
    const std::string lbl = labels.empty() ? "" : "{" + labels + "}";
    out += full + "_sum" + lbl + " " +
           prom_num(h.mean() * static_cast<double>(h.count())) + "\n";
    out += full + "_count" + lbl + " " + std::to_string(h.count()) + "\n";
  };
  auto hist = [&](const char* name, const util::Histogram& h) {
    const std::string full = std::string("fluxion_") + name;
    out += "# TYPE " + full + " histogram\n";
    hist_series(full, h, "");
  };

  counter("traverser_visits", trav_visits.value());
  counter("traverser_pruned", trav_pruned.value());
  counter("traverser_postorder_rejects", trav_postorder_rejects.value());
  counter("traverser_rollbacks", trav_rollbacks.value());
  counter("traverser_match_attempts", trav_match_attempts.value());
  counter("traverser_status_pruned", trav_status_pruned.value());
  counter("traverser_first_match_stops", trav_first_match_stops.value());

  out += "# TYPE fluxion_op_calls_total counter\n";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    out += std::string("fluxion_op_calls_total{op=\"") +
           op_name(static_cast<Op>(i)) + "\"} " +
           std::to_string(ops[i].calls.value()) + "\n";
  }
  out += "# TYPE fluxion_op_failures_total counter\n";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    out += std::string("fluxion_op_failures_total{op=\"") +
           op_name(static_cast<Op>(i)) + "\"} " +
           std::to_string(ops[i].failures.value()) + "\n";
  }
  out += "# TYPE fluxion_op_latency_us histogram\n";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    hist_series("fluxion_op_latency_us", ops[i].latency_us,
                std::string("op=\"") + op_name(static_cast<Op>(i)) + "\"");
  }

  counter("planner_point_inserts", planner_point_inserts.value());
  counter("planner_point_removes", planner_point_removes.value());
  counter("planner_rekeys", planner_rekeys.value());
  counter("planner_span_adds", planner_span_adds.value());
  counter("planner_span_removes", planner_span_removes.value());
  counter("planner_avail_queries", planner_avail_queries.value());
  counter("planner_avail_time_first", planner_avail_time_first.value());
  counter("planner_atf_probes", planner_atf_probes.value());
  counter("planner_multi_span_adds", multi_span_adds.value());
  counter("planner_multi_span_removes", multi_span_removes.value());
  counter("planner_multi_avail_time_first", multi_avail_time_first.value());
  counter("planner_multi_atf_rounds", multi_atf_rounds.value());
  counter("sdfu_commits", sdfu_commits.value());
  counter("sdfu_spans", sdfu_spans.value());
  hist("sdfu_spans_per_commit", sdfu_spans_per_commit);

  counter("queue_submitted", queue_submitted.value());
  counter("queue_schedule_passes", queue_schedule_passes.value());
  counter("queue_match_calls", queue_match_calls.value());
  counter("queue_started_immediately", queue_started_immediately.value());
  counter("queue_completed", queue_completed.value());
  counter("queue_rejected", queue_rejected.value());
  counter("queue_events_fired", queue_events_fired.value());
  counter("queue_jobs_scanned", queue_jobs_scanned.value());
  counter("queue_match_skipped", queue_match_skipped.value());
  counter("queue_cache_invalidations", queue_cache_invalidations.value());
  counter("queue_reservations_made", queue_reservations_made.value());
  counter("queue_reservations_dropped", queue_reservations_dropped.value());
  gauge("queue_depth", queue_depth.value());
  gauge("queue_depth_max", queue_depth.max());
  hist("queue_depth_samples", queue_depth_samples);
  hist("job_wait_seconds", job_wait);
  hist("job_turnaround_seconds", job_turnaround);
  hist("wait_resources_seconds", wait_resources);
  hist("wait_reservation_seconds", wait_reservation);
  hist("wait_held_seconds", wait_held);
  hist("wait_dependency_seconds", wait_dependency);

  counter("dyn_status_flips", dyn_status_flips.value());
  counter("dyn_evicted_requeued", dyn_evicted_requeued.value());
  counter("dyn_evicted_killed", dyn_evicted_killed.value());
  counter("dyn_replanned", dyn_replanned.value());
  counter("dyn_grow_calls", dyn_grow_calls.value());
  counter("dyn_shrink_calls", dyn_shrink_calls.value());
  counter("dyn_vertices_added", dyn_vertices_added.value());
  counter("dyn_vertices_removed", dyn_vertices_removed.value());
  hist("dyn_grow_latency_us", dyn_grow_latency_us);
  hist("dyn_shrink_latency_us", dyn_shrink_latency_us);

  counter("hier_routed", hier_routed.value());
  counter("hier_escalated", hier_escalated.value());
  counter("hier_stolen", hier_stolen.value());
  counter("hier_steal_passes", hier_steal_passes.value());
  hist("hier_route_latency_us", hier_route_latency_us);
  if (!hier_member_depth.empty()) {
    out += "# TYPE fluxion_hier_member_depth gauge\n";
    for (std::size_t i = 0; i < hier_member_depth.size(); ++i) {
      out += "fluxion_hier_member_depth{member=\"" + std::to_string(i) +
             "\"} " + std::to_string(hier_member_depth[i].value()) + "\n";
    }
    out += "# TYPE fluxion_hier_member_depth_max gauge\n";
    for (std::size_t i = 0; i < hier_member_depth.size(); ++i) {
      out += "fluxion_hier_member_depth_max{member=\"" + std::to_string(i) +
             "\"} " + std::to_string(hier_member_depth[i].max()) + "\n";
    }
  }

  counter("snap_saves", snap_saves.value());
  counter("snap_loads", snap_loads.value());
  counter("snap_bytes", snap_bytes.value());
  hist("snap_save_us", snap_save_us);
  hist("snap_load_us", snap_load_us);
  counter("replica_queries", replica_queries.value());
  counter("replica_stale", replica_stale.value());
  return out;
}

std::string PerfMonitor::render(bool verbose) const {
  std::string out;
  out += "traverser:\n";
  line(out, "visits", trav_visits.value());
  line(out, "pruned", trav_pruned.value());
  line(out, "postorder-rejects", trav_postorder_rejects.value());
  line(out, "rollbacks", trav_rollbacks.value());
  line(out, "match-attempts", trav_match_attempts.value());
  line(out, "status-pruned", trav_status_pruned.value());
  line(out, "first-match-stops", trav_first_match_stops.value());
  out += "match ops:\n";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const auto& o = ops[i];
    if (o.calls.value() == 0) continue;
    char buf[192];
    std::snprintf(buf, sizeof buf, "  %-28s calls=%llu failures=%llu\n",
                  op_name(static_cast<Op>(i)),
                  static_cast<unsigned long long>(o.calls.value()),
                  static_cast<unsigned long long>(o.failures.value()));
    out += buf;
    hist_summary(out, "  latency (us)", o.latency_us);
    if (verbose && o.latency_us.count() > 0) {
      out += o.latency_us.render();
    }
  }
  out += "planner:\n";
  line(out, "point-inserts", planner_point_inserts.value());
  line(out, "point-removes", planner_point_removes.value());
  line(out, "rekeys", planner_rekeys.value());
  line(out, "span-adds", planner_span_adds.value());
  line(out, "span-removes", planner_span_removes.value());
  line(out, "avail-queries", planner_avail_queries.value());
  line(out, "avail-time-first", planner_avail_time_first.value());
  line(out, "atf-probes", planner_atf_probes.value());
  out += "planner-multi:\n";
  line(out, "span-adds", multi_span_adds.value());
  line(out, "span-removes", multi_span_removes.value());
  line(out, "avail-time-first", multi_avail_time_first.value());
  line(out, "atf-rounds", multi_atf_rounds.value());
  out += "sdfu:\n";
  line(out, "commits", sdfu_commits.value());
  line(out, "spans", sdfu_spans.value());
  hist_summary(out, "spans-per-commit", sdfu_spans_per_commit);
  if (verbose && sdfu_spans_per_commit.count() > 0) {
    out += sdfu_spans_per_commit.render();
  }
  if (queue_submitted.value() > 0) {
    out += "queue:\n";
    line(out, "submitted", queue_submitted.value());
    line(out, "schedule-passes", queue_schedule_passes.value());
    line(out, "match-calls", queue_match_calls.value());
    line(out, "started-immediately", queue_started_immediately.value());
    line(out, "completed", queue_completed.value());
    line(out, "rejected", queue_rejected.value());
    line(out, "events-fired", queue_events_fired.value());
    line(out, "jobs-scanned", queue_jobs_scanned.value());
    line(out, "match-skipped", queue_match_skipped.value());
    line(out, "cache-invalidations", queue_cache_invalidations.value());
    line(out, "reservations-made", queue_reservations_made.value());
    line(out, "reservations-dropped", queue_reservations_dropped.value());
    line(out, "depth", static_cast<std::uint64_t>(
                           queue_depth.value() < 0 ? 0 : queue_depth.value()));
    line(out, "depth-max", static_cast<std::uint64_t>(
                               queue_depth.max() < 0 ? 0 : queue_depth.max()));
    hist_summary(out, "job-wait (sim s)", job_wait);
    if (verbose && job_wait.count() > 0) out += job_wait.render();
    hist_summary(out, "job-turnaround (sim s)", job_turnaround);
    if (verbose && job_turnaround.count() > 0) out += job_turnaround.render();
    if (wait_resources.count() > 0) {
      hist_summary(out, "wait-resources (sim s)", wait_resources);
      hist_summary(out, "wait-reservation (sim s)", wait_reservation);
      hist_summary(out, "wait-held (sim s)", wait_held);
      hist_summary(out, "wait-dependency (sim s)", wait_dependency);
    }
  }
  if (dyn_status_flips.value() > 0 || dyn_grow_calls.value() > 0 ||
      dyn_shrink_calls.value() > 0) {
    out += "dynamic:\n";
    line(out, "status-flips", dyn_status_flips.value());
    line(out, "evicted-requeued", dyn_evicted_requeued.value());
    line(out, "evicted-killed", dyn_evicted_killed.value());
    line(out, "replanned", dyn_replanned.value());
    line(out, "grow-calls", dyn_grow_calls.value());
    line(out, "shrink-calls", dyn_shrink_calls.value());
    line(out, "vertices-added", dyn_vertices_added.value());
    line(out, "vertices-removed", dyn_vertices_removed.value());
    if (dyn_grow_latency_us.count() > 0) {
      hist_summary(out, "grow latency (us)", dyn_grow_latency_us);
      if (verbose) out += dyn_grow_latency_us.render();
    }
    if (dyn_shrink_latency_us.count() > 0) {
      hist_summary(out, "shrink latency (us)", dyn_shrink_latency_us);
      if (verbose) out += dyn_shrink_latency_us.render();
    }
  }
  if (hier_routed.value() > 0 || hier_escalated.value() > 0 ||
      !hier_member_depth.empty()) {
    out += "hier:\n";
    line(out, "routed", hier_routed.value());
    line(out, "escalated", hier_escalated.value());
    line(out, "stolen", hier_stolen.value());
    line(out, "steal-passes", hier_steal_passes.value());
    if (hier_route_latency_us.count() > 0) {
      hist_summary(out, "route latency (us)", hier_route_latency_us);
      if (verbose) out += hier_route_latency_us.render();
    }
    for (std::size_t i = 0; i < hier_member_depth.size(); ++i) {
      char label[48];
      std::snprintf(label, sizeof label, "member %zu depth", i);
      line(out, label,
           static_cast<std::uint64_t>(hier_member_depth[i].value() < 0
                                          ? 0
                                          : hier_member_depth[i].value()));
    }
  }
  if (snap_saves.value() > 0 || snap_loads.value() > 0 ||
      replica_queries.value() > 0) {
    out += "snapshot:\n";
    line(out, "saves", snap_saves.value());
    line(out, "loads", snap_loads.value());
    line(out, "bytes", snap_bytes.value());
    if (snap_save_us.count() > 0) {
      hist_summary(out, "save latency (us)", snap_save_us);
      if (verbose) out += snap_save_us.render();
    }
    if (snap_load_us.count() > 0) {
      hist_summary(out, "load latency (us)", snap_load_us);
      if (verbose) out += snap_load_us.render();
    }
    line(out, "replica-queries", replica_queries.value());
    line(out, "replica-stale", replica_stale.value());
  }
  return out;
}

}  // namespace fluxion::obs
