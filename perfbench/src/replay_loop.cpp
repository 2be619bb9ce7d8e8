#include "replay_loop.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "sim/fed_replay.hpp"
#include "sim/replay.hpp"

namespace perfbench {

using fx::util::TimePoint;
using Clock = std::chrono::steady_clock;

const char* span_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::pass: return "pass";
    case SpanKind::batch: return "batch";
    case SpanKind::parse: return "parse";
    case SpanKind::submit: return "submit";
    case SpanKind::schedule: return "schedule";
    case SpanKind::next_event: return "next_event";
    case SpanKind::advance: return "advance";
    case SpanKind::reject: return "reject";
    case SpanKind::match: return "match";
    case SpanKind::probe: return "probe";
  }
  return "?";
}

namespace {

constexpr auto kProbeInterval = std::chrono::milliseconds(5);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The public calls of a flat engine.
struct FlatApi {
  fx::queue::JobQueue& q;
  TimePoint now() const { return q.now(); }
  TimePoint next_event() const { return q.next_event(); }
  fx::util::Status advance_to(TimePoint t) { return q.advance_to(t); }
  void schedule() { q.schedule(); }
  std::int64_t submit(fx::jobspec::Jobspec&& js) {
    return q.submit(std::move(js));
  }
  bool reject_stuck() { return q.reject_head_never_satisfiable(); }
  double match_seconds() const { return q.stats().total_match_seconds; }
};

/// The public calls of a federation.
struct FedApi {
  fx::hier::Federation& fed;
  TimePoint now() const { return fed.now(); }
  TimePoint next_event() const { return fed.next_event(); }
  fx::util::Status advance_to(TimePoint t) { return fed.advance_to(t); }
  void schedule() { fed.schedule(); }
  std::int64_t submit(fx::jobspec::Jobspec&& js) {
    return fed.submit(std::move(js));
  }
  /// Federation::run_to_completion's idle step: unrouted jobs get routed
  /// on the next pass; otherwise each member rejects its head job.
  bool reject_stuck() {
    if (fed.inbox_size() > 0) return true;
    bool rejected = false;
    for (std::size_t i = 0; i < fed.member_count(); ++i) {
      rejected = fed.member(i).queue->reject_head_never_satisfiable() ||
                 rejected;
    }
    return rejected;
  }
  double match_seconds() const {
    double s = 0;
    for (std::size_t i = 0; i < fed.member_count(); ++i) {
      s += fed.member(i).queue->stats().total_match_seconds;
    }
    return s;
  }
};

template <class Api, bool Traced>
class Loop {
 public:
  Loop(Api& api, const Inputs& in) : api_(api), in_(in) {}

  PassResult run() {
    const std::size_t n = in_.order.size();
    r_.ids.assign(in_.trace.size(), -1);
    r_.decide_s.reserve(n);
    if constexpr (Traced) r_.spans.reserve(8 * n + 64);
    t0_ = Clock::now();
    const int pass = open(SpanKind::pass, -1);

    for (std::size_t k = 0; k < n;) {
      probe(pass);
      const TimePoint at = in_.trace[in_.order[k]].arrival;
      // Fire events (and free resources) on the way to this arrival.
      while (true) {
        const TimePoint ev = next_event(pass);
        if (ev >= at) break;
        {
          Call c(*this, SpanKind::advance, pass);
          note(api_.advance_to(ev));
        }
        Call c(*this, SpanKind::schedule, pass);
        api_.schedule();
      }
      {
        Call c(*this, SpanKind::advance, pass);
        note(api_.advance_to(std::max(api_.now(), at)));
      }
      const auto b0 = Clock::now();
      const int batch = open(SpanKind::batch, pass);
      while (k < n && in_.trace[in_.order[k]].arrival <= api_.now()) {
        const std::size_t idx = in_.order[k++];
        auto js = [&] {
          Call c(*this, SpanKind::parse, batch);
          return fx::jobspec::Jobspec::from_yaml(in_.yaml[idx]);
        }();
        if (!js) {
          note(js.error());
          continue;
        }
        Call c(*this, SpanKind::submit, batch);
        r_.ids[idx] = api_.submit(std::move(*js));
      }
      {
        Call c(*this, SpanKind::schedule, batch);
        api_.schedule();
      }
      close(batch);
      r_.decide_s.push_back(seconds_between(b0, Clock::now()));
    }

    // A queue snapshot arrives in one batch; its decision samples are the
    // drain's steps instead: advance_to the next event (a completion) and
    // the schedule() pass that answers it.
    const bool step_samples = r_.decide_s.size() == 1;
    if (step_samples) r_.decide_s.clear();
    Clock::time_point step0{};
    // Drain: the run_to_completion loop, one public call at a time.
    while (true) {
      {
        Call c(*this, SpanKind::schedule, pass);
        api_.schedule();
      }
      if (step0 != Clock::time_point{}) {
        r_.decide_s.push_back(seconds_between(step0, Clock::now()));
        step0 = {};
      }
      probe(pass);
      const TimePoint t = next_event(pass);
      if (t == fx::util::kMaxTime) {
        const bool rejected = [&] {
          Call c(*this, SpanKind::reject, pass);
          return api_.reject_stuck();
        }();
        if (rejected) continue;
        break;
      }
      if (step_samples) step0 = Clock::now();
      Call c(*this, SpanKind::advance, pass);
      note(api_.advance_to(t));
    }
    close(pass);
    r_.wall_s = seconds_between(t0_, Clock::now()) - probe_wall_s_;
    return std::move(r_);
  }

 private:
  /// Times one public call; traced, also charges the traverser time the
  /// queues' match timer accumulated during it to a child span.
  class Call {
   public:
    Call(Loop& loop, SpanKind kind, int parent) : loop_(loop) {
      if constexpr (Traced) {
        match0_ = loop_.api_.match_seconds();
        id_ = loop_.open(kind, parent);
      }
    }
    ~Call() {
      if constexpr (Traced) {
        loop_.close(id_);
        const double dm = loop_.api_.match_seconds() - match0_;
        if (dm > 0) {
          const double s = loop_.r_.spans[id_].start;
          loop_.r_.spans.push_back(
              {SpanKind::match, static_cast<std::int32_t>(id_), s, s + dm});
        }
      }
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    Loop& loop_;
    int id_ = -1;
    double match0_ = 0;
  };

  /// Samples the host's speed between public calls. Traced, the probe
  /// gets a span, which no layer counts and the wall time leaves out.
  void probe(int parent) {
    const auto p0 = Clock::now();
    if (p0 < next_probe_) return;
    const int id = open(SpanKind::probe, parent);
    r_.speed.probe();
    close(id);
    const auto p1 = Clock::now();
    if constexpr (Traced) {
      const Span& s = r_.spans[static_cast<std::size_t>(id)];
      probe_wall_s_ += s.end - s.start;
    } else {
      probe_wall_s_ += seconds_between(p0, p1);
    }
    next_probe_ = p1 + kProbeInterval;
  }

  TimePoint next_event(int parent) {
    Call c(*this, SpanKind::next_event, parent);
    return api_.next_event();
  }

  int open(SpanKind kind, int parent) {
    if constexpr (!Traced) return -1;
    const double t = seconds_between(t0_, Clock::now());
    r_.spans.push_back({kind, static_cast<std::int32_t>(parent), t, t});
    return static_cast<int>(r_.spans.size() - 1);
  }
  void close(int id) {
    if constexpr (Traced) {
      r_.spans[static_cast<std::size_t>(id)].end =
          seconds_between(t0_, Clock::now());
    }
  }
  void note(const fx::util::Status& st) {
    if (st) return;
    if (r_.errors++ == 0) r_.first_error = st.error().message;
  }
  void note(const fx::util::Error& e) {
    if (r_.errors++ == 0) r_.first_error = e.message;
  }

  Api& api_;
  const Inputs& in_;
  PassResult r_;
  Clock::time_point t0_;
  Clock::time_point next_probe_{};
  double probe_wall_s_ = 0;  // wall time spent in probes
};

template <class Api>
PassResult run_loop(Api api, const Inputs& in, bool traced) {
  if (traced) return Loop<Api, true>(api, in).run();
  return Loop<Api, false>(api, in).run();
}

/// The job behind a trace id, with the member and graph that placed it.
struct Placed {
  const fx::queue::Job* job = nullptr;
  std::size_t member = 0;
  const fx::graph::ResourceGraph* graph = nullptr;
};

Placed lookup(Engine& e, std::int64_t id) {
  if (id < 0) return {};
  if (e.fed) {
    const auto* ref = e.fed->find(id);
    if (ref == nullptr) return {};
    return {e.fed->find_job(id), ref->member,
            &e.fed->member(ref->member).instance->engine().graph()};
  }
  return {e.queue->find(id), 0, &e.rq->graph()};
}

/// A machine-wide key for a vertex: the path below its nearest node
/// ancestor, named from that node (node names are unique across the
/// machine, and federation child graphs re-root nodes under a synthetic
/// cluster); vertices above the node level stay member-local.
std::string resource_key(const fx::graph::ResourceGraph& g,
                         fx::graph::VertexId v, std::size_t member) {
  std::string suffix;
  for (fx::graph::VertexId u = v; u != fx::graph::kInvalidVertex;
       u = g.vertex(u).containment_parent) {
    const auto& vx = g.vertex(u);
    suffix.insert(0, vx.name).insert(0, 1, '/');
    if (g.type_name(vx.type) == "node") return suffix;
  }
  std::string key = "m";
  key += std::to_string(member);
  key += ':';
  key += g.vertex(v).path;
  return key;
}

/// Numbers resources by resource_key, naming each vertex only once.
class ResourceIds {
 public:
  std::int64_t of(const fx::graph::ResourceGraph& g, fx::graph::VertexId v,
                  std::size_t member) {
    const std::uint64_t local = (std::uint64_t{member} << 32) |
                                static_cast<std::uint32_t>(v);
    if (auto it = local_.find(local); it != local_.end()) return it->second;
    const auto next = static_cast<std::int64_t>(named_.size());
    const std::int64_t id =
        named_.try_emplace(resource_key(g, v, member), next).first->second;
    local_.emplace(local, id);
    return id;
  }

 private:
  std::unordered_map<std::uint64_t, std::int64_t> local_;
  std::unordered_map<std::string, std::int64_t> named_;
};

}  // namespace

PassResult replay(Engine& engine, const Inputs& in, bool traced) {
  if (engine.fed) return run_loop(FedApi{*engine.fed}, in, traced);
  return run_loop(FlatApi{*engine.queue}, in, traced);
}

fx::util::Expected<std::vector<std::int64_t>> reference_replay(
    Engine& engine, const Inputs& in) {
  if (engine.fed) {
    auto r = fx::sim::replay_trace(*engine.fed, in.trace, kCoresPerNode);
    if (!r) return r.error();
    return r->ids;
  }
  auto r = fx::sim::replay_trace(*engine.queue, in.trace, kCoresPerNode);
  if (!r) return r.error();
  return r->ids;
}

Outcome inspect(Engine& engine, const Inputs& in,
                const std::vector<std::int64_t>& ids, bool deep) {
  Outcome out;
  Digest d;
  std::vector<Booking> bookings;
  ResourceIds resource_ids;
  double wait_sum = 0;
  auto fail = [&](std::string why) {
    if (out.violation.empty()) out.violation = std::move(why);
  };
  for (std::size_t i = 0; i < in.trace.size(); ++i) {
    const Placed p = lookup(engine, ids[i]);
    if (p.job == nullptr) {
      ++out.failed;
      d.add(-1);
      fail("trace job " + std::to_string(i) + " was never submitted");
      continue;
    }
    const fx::queue::Job& job = *p.job;
    d.add(static_cast<std::int64_t>(p.member));
    d.add(static_cast<std::int64_t>(job.state));
    d.add(job.start_time);
    d.add(job.end_time);
    for (const auto& u : job.resources) {
      d.add(u.vertex);
      d.add(u.units);
      d.add(u.exclusive ? 1 : 0);
    }
    if (job.state != fx::queue::JobState::completed) {
      ++out.failed;
      fail("trace job " + std::to_string(i) + " ended " +
           fx::queue::job_state_name(job.state));
      continue;
    }
    ++out.completed;
    wait_sum += static_cast<double>(job.start_time - job.submit_time);
    if (!deep) continue;
    const fx::sim::TraceJob& tj = in.trace[i];
    if (job.submit_time != tj.arrival || job.start_time < tj.arrival) {
      fail("trace job " + std::to_string(i) + " submitted at " +
           std::to_string(job.submit_time) + ", started at " +
           std::to_string(job.start_time) + ", arrival " +
           std::to_string(tj.arrival));
    }
    if (job.end_time - job.start_time != tj.duration) {
      fail("trace job " + std::to_string(i) + " ran " +
           std::to_string(job.end_time - job.start_time) + " s, asked " +
           std::to_string(tj.duration) + " s");
    }
    for (const auto& u : job.resources) {
      bookings.push_back({resource_ids.of(*p.graph, u.vertex, p.member),
                          p.graph->vertex(u.vertex).size, u.units,
                          u.exclusive, job.start_time, job.end_time,
                          static_cast<std::int64_t>(i)});
    }
  }
  out.digest = d.value();
  if (out.completed > 0) {
    out.avg_wait_sim_s = wait_sum / static_cast<double>(out.completed);
  }
  if (deep) {
    if (std::string v = capacity_violation(std::move(bookings)); !v.empty()) {
      fail("capacity oracle: " + v);
    }
  }
  if (engine.fed) {
    // Leaves only: the root's traverser holds the leaves' machine-long
    // grants, and verify_filters() is quadratic in claims on it.
    for (std::size_t m = 0; m < engine.fed->member_count(); ++m) {
      if (engine.fed->member(m).is_root) continue;
      if (!engine.fed->member(m).instance->engine().traverser().audit()) {
        fail("Traverser::audit failed on member " + std::to_string(m));
      }
    }
  } else if (!engine.rq->traverser().audit()) {
    fail("Traverser::audit failed");
  }
  return out;
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  LayerTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end - s.start;
    const double self = dur - child[i];
    switch (s.kind) {
      case SpanKind::pass:
      case SpanKind::batch: t.unaccounted_s += self; break;
      case SpanKind::parse: t.parse_s += dur; break;
      case SpanKind::submit: t.submit_s += dur; break;
      case SpanKind::schedule: t.schedule_s += dur; break;
      case SpanKind::next_event:
      case SpanKind::advance:
      case SpanKind::reject: t.advance_s += dur; break;
      case SpanKind::match: t.match_s += dur; break;
      case SpanKind::probe: break;  // not the engine's time
    }
  }
  return t;
}

}  // namespace perfbench
