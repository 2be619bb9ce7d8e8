#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"

namespace fluxion::sim {

std::vector<TraceJob> generate_trace(const TraceConfig& config,
                                     util::Rng& rng) {
  std::vector<TraceJob> trace;
  trace.reserve(config.job_count);
  const double max_node_log = std::log2(static_cast<double>(config.max_nodes));
  const double min_dur_log =
      std::log(static_cast<double>(config.min_duration));
  const double max_dur_log =
      std::log(static_cast<double>(config.max_duration));
  for (std::size_t i = 0; i < config.job_count; ++i) {
    TraceJob job;
    if (rng.chance(config.single_node_fraction)) {
      job.nodes = 1;
    } else {
      // Log-uniform node count: P(nodes ~ 2^u) with u uniform.
      const double u = rng.uniform01() * max_node_log;
      job.nodes = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(std::exp2(u))));
      job.nodes = std::min(job.nodes, config.max_nodes);
    }
    const double d = min_dur_log + rng.uniform01() * (max_dur_log - min_dur_log);
    job.duration = std::max<util::Duration>(
        1, static_cast<util::Duration>(std::llround(std::exp(d))));
    if (config.duration_quantum > 0) {
      const util::Duration q = config.duration_quantum;
      job.duration = ((job.duration + q - 1) / q) * q;
    }
    trace.push_back(job);
  }
  return trace;
}

util::Expected<jobspec::Jobspec> trace_jobspec(const TraceJob& job,
                                               std::int64_t cores_per_node) {
  using jobspec::res;
  using jobspec::slot;
  using jobspec::xres;
  return jobspec::make(
      {slot(job.nodes, {xres("node", 1, {res("core", cores_per_node)})})},
      job.duration);
}

void stamp_poisson_arrivals(std::vector<TraceJob>& trace,
                            double mean_interarrival, util::Rng& rng) {
  double t = 0.0;
  for (TraceJob& job : trace) {
    // Inverse-CDF sample of Exp(1/mean); clamp the log away from 0.
    const double u = std::max(rng.uniform01(), 1e-12);
    t += -mean_interarrival * std::log(u);
    job.arrival = static_cast<util::TimePoint>(t);
  }
}

util::Expected<std::vector<TraceJob>> parse_trace(std::string_view text) {
  std::vector<TraceJob> trace;
  int lineno = 0;
  for (std::string_view raw : util::split_lines(text)) {
    ++lineno;
    std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    std::vector<std::string_view> fields;
    for (auto f : util::split(line, ' ')) {
      if (!util::trim(f).empty()) fields.push_back(util::trim(f));
    }
    if (fields.size() != 2 && fields.size() != 3) {
      return util::Error{util::Errc::parse_error,
                         "trace:" + std::to_string(lineno) +
                             ": expected '<nodes> <duration> [arrival]'"};
    }
    const auto nodes = util::parse_i64(fields[0]);
    const auto duration = util::parse_i64(fields[1]);
    if (!nodes || *nodes < 1 || !duration || *duration < 1) {
      return util::Error{util::Errc::parse_error,
                         "trace:" + std::to_string(lineno) +
                             ": nodes and duration must be positive"};
    }
    TraceJob job{*nodes, *duration, 0};
    if (fields.size() == 3) {
      const auto arrival = util::parse_i64(fields[2]);
      if (!arrival || *arrival < 0) {
        return util::Error{util::Errc::parse_error,
                           "trace:" + std::to_string(lineno) +
                               ": arrival must be non-negative"};
      }
      job.arrival = *arrival;
    }
    trace.push_back(job);
  }
  return trace;
}

std::string format_trace(const std::vector<TraceJob>& trace) {
  const bool with_arrivals =
      std::any_of(trace.begin(), trace.end(),
                  [](const TraceJob& j) { return j.arrival != 0; });
  std::string out =
      with_arrivals ? "# nodes duration arrival\n" : "# nodes duration\n";
  for (const TraceJob& j : trace) {
    out += std::to_string(j.nodes) + " " + std::to_string(j.duration);
    if (with_arrivals) out.append(" ").append(std::to_string(j.arrival));
    out += "\n";
  }
  return out;
}

}  // namespace fluxion::sim
