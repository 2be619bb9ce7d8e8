#include "queue/job_queue.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace fluxion::queue {

using traverser::MatchOp;
using util::Errc;

const char* job_state_name(JobState s) noexcept {
  switch (s) {
    case JobState::pending: return "pending";
    case JobState::held: return "held";
    case JobState::reserved: return "reserved";
    case JobState::running: return "running";
    case JobState::completed: return "completed";
    case JobState::canceled: return "canceled";
    case JobState::rejected: return "rejected";
  }
  return "unknown";
}

const char* queue_policy_name(QueuePolicy p) noexcept {
  switch (p) {
    case QueuePolicy::fcfs: return "fcfs";
    case QueuePolicy::conservative_backfill: return "conservative";
    case QueuePolicy::easy_backfill: return "easy";
    case QueuePolicy::hybrid_backfill: return "hybrid";
  }
  return "unknown";
}

const char* wait_cause_name(WaitCause c) noexcept {
  switch (c) {
    case WaitCause::resources: return "resources";
    case WaitCause::reservation: return "reservation";
    case WaitCause::held: return "held";
    case WaitCause::dependency: return "dependency";
  }
  return "unknown";
}

std::int64_t& WaitBreakdown::of(WaitCause c) noexcept {
  switch (c) {
    case WaitCause::reservation: return reservation;
    case WaitCause::held: return held;
    case WaitCause::dependency: return dependency;
    case WaitCause::resources: break;
  }
  return resources;
}

std::int64_t WaitBreakdown::of(WaitCause c) const noexcept {
  return const_cast<WaitBreakdown*>(this)->of(c);
}

namespace {

// Canonical one-line rendering of a request vertex. Everything the
// matcher can see must be included: two requests that serialize equally
// must be interchangeable to the traverser, or the satisfiability cache
// would conflate them.
void sig_resource(const jobspec::Resource& r, std::string& out) {
  out += r.type;
  out += '#';
  out += std::to_string(r.count);
  if (r.count_max != 0) {
    out += '-';
    out += std::to_string(r.count_max);
  }
  if (r.exclusive) out += '!';
  if (!r.label.empty()) {
    out += '~';
    out += r.label;
  }
  for (const std::string& c : r.requires_) {
    out += '@';
    out += c;
  }
  if (!r.with.empty()) {
    out += '(';
    for (const auto& child : r.with) {
      sig_resource(child, out);
      out += ';';
    }
    out += ')';
  }
}

// The slot of a dominance-eligible request: one top-level slot of fixed
// count N holding one instance of one resource whose children are leaves
// of fixed counts, e.g. slot(N){node{core[c]}}. Both traversal visitors
// claim N such units whenever N qualify, and a unit that qualifies over a
// window qualifies over every shorter one, so a resource_busy failure of
// (N, d) implies one for every (N' >= N, d' >= d) at the same anchor.
// Nested shapes fail under a greedy choice and are never eligible.
const jobspec::Resource* dominable_slot(const jobspec::Jobspec& js) {
  if (js.resources.size() != 1) return nullptr;
  const jobspec::Resource& slot = js.resources.front();
  if (!slot.is_slot() || slot.count_max > slot.count || slot.with.size() != 1) {
    return nullptr;
  }
  const jobspec::Resource& unit = slot.with.front();
  if (unit.count != 1 || unit.count_max > unit.count) return nullptr;
  for (const jobspec::Resource& leaf : unit.with) {
    if (!leaf.with.empty() || leaf.count_max > leaf.count) return nullptr;
  }
  return &slot;
}

}  // namespace

std::string spec_signature(const jobspec::Jobspec& js) {
  // Aggregate per-type totals lead (the quantity the pruning filters
  // reason about — a cheap, readable prefix), but the exact canonical
  // tree follows: two requests with equal totals can still match
  // differently (shape, exclusivity, properties), so totals alone are
  // not a sound cache key.
  std::string out;
  for (const auto& [type, n] : js.aggregate_counts()) {
    out += type;
    out += ':';
    out += std::to_string(n);
    out += ',';
  }
  out += '/';
  out += std::to_string(js.duration);
  out += '/';
  for (const auto& r : js.resources) {
    sig_resource(r, out);
    out += ';';
  }
  return out;
}

JobQueue::JobQueue(traverser::Traverser& traverser, QueuePolicy policy)
    : traverser_(traverser),
      policy_(policy),
      obs_source_(&label_,
                  {{"queue.submitted", &stats_.submitted},
                   {"queue.schedule_passes", &stats_.schedule_passes},
                   {"queue.match_calls", &stats_.match_calls},
                   {"queue.started_immediately", &stats_.started_immediately},
                   {"queue.completed", &stats_.completed},
                   {"queue.rejected", &stats_.rejected},
                   {"queue.events_fired", &stats_.events_fired},
                   {"queue.jobs_scanned", &stats_.heap_pops},
                   {"queue.match_skipped", &stats_.match_skipped},
                   {"queue.match_dominated", &stats_.match_dominated},
                   {"queue.cache_invalidations", &stats_.cache_invalidations},
                   {"queue.reservations_made", &stats_.reservations_made},
                   {"queue.reservations_dropped",
                    &stats_.reservations_dropped}}) {
  cache_epoch_ = traverser_.mutation_epoch();
}

void JobQueue::set_eventlog(bool on) {
  log_.set_enabled(on);
  // Blocked events carry attribution only when the traverser tallies it;
  // couple the two so `--eventlog` alone yields explainable output.
  if (on) traverser_.set_introspection(true);
}

void JobQueue::record_event(
    JobId id, const char* kind,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!log_.enabled()) return;
  log_.record(now_, id, kind, std::move(args));
}

void JobQueue::mark_wait(Job& job, WaitCause next) {
  job.wait.of(job.wait_cause) += now_ - job.wait_since;
  job.wait_since = now_;
  job.wait_cause = next;
}

void JobQueue::note_dependency_wait(Job& job) {
  if (job.wait_cause != WaitCause::dependency) {
    record_event(job.id, "depend");
  }
  mark_wait(job, WaitCause::dependency);
}

void JobQueue::reject_job(Job& job, const char* why) {
  mark_wait(job, job.wait_cause);  // close the open wait interval
  job.state = JobState::rejected;
  ++stats_.rejected;
  record_event(job.id, "reject", {{"why", obs::event_str(why)}});
}

std::vector<std::pair<std::string, std::string>> JobQueue::render_blocked(
    util::Errc code) const {
  std::vector<std::pair<std::string, std::string>> args;
  args.emplace_back("code", obs::event_str(util::errc_name(code)));
  if (!label_.empty()) {
    args.emplace_back("member", obs::event_str(label_));
  }
  if (!traverser_.introspection()) return args;
  for (auto& kv : traverser_.explain_args()) args.push_back(std::move(kv));
  return args;
}

void JobQueue::push_event(TimePoint time, int kind, JobId id) const {
  events_.push(Event{time, kind, id});
}

bool JobQueue::event_valid(const Event& ev) const {
  auto it = jobs_.find(ev.id);
  if (it == jobs_.end()) return false;
  const Job& job = it->second;
  if (ev.kind == kEventStart) {
    return job.state == JobState::reserved && job.start_time == ev.time;
  }
  return job.state == JobState::running && job.end_time == ev.time;
}

void JobQueue::prune_stale_events() const {
  while (!events_.empty() && !event_valid(events_.top())) {
    events_.pop();
    ++stats_.heap_pops;
  }
}

void JobQueue::set_match_cache(bool on) {
  match_cache_enabled_ = on;
  if (!on) blocked_.clear();
}

void JobQueue::invalidate_match_cache() {
  if (blocked_.empty()) return;
  blocked_.clear();
  ++stats_.cache_invalidations;
}

std::size_t JobQueue::CacheKeyHash::operator()(
    const CacheKey& k) const noexcept {
  std::uint64_t h = static_cast<std::uint64_t>(k.anchor);
  h = h * 0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(k.shape);
  h = h * 0x9E3779B97F4A7C15ull ^
      (k.depth << 3 | static_cast<std::uint64_t>(k.reserve) << 2 |
       static_cast<std::uint64_t>(k.mode));
  return static_cast<std::size_t>(h ^ (h >> 32));
}

JobQueue::CacheKey JobQueue::cache_key(Job& job, bool allow_reserve,
                                       TimePoint anchor) {
  // The cache is valid for exactly one traverser mutation epoch: any
  // committed change (placement, completion, grow/shrink, status flip,
  // SDFU update) can flip a previously-failed match to success — the
  // greedy matcher is not monotone under resource removal either, so no
  // cheaper per-entry invalidation is sound.
  if (const std::uint64_t epoch = traverser_.mutation_epoch();
      epoch != cache_epoch_) {
    cache_epoch_ = epoch;
    invalidate_match_cache();
  }
  Job::CacheShape& s = job.cache_shape;
  if (s.id < 0) {
    // A dominable shape is its unit (the matcher reads nothing else of the
    // slot but N); N and the duration are kept beside the id. Any other
    // shape is its full signature, so a hit is an exact match. The '*'
    // prefix keeps the two apart: a signature starts with a type name or
    // '/'.
    std::string sig;
    if (const jobspec::Resource* slot = dominable_slot(job.spec)) {
      s.dominable = true;
      s.n = slot->count;
      s.d = job.spec.duration;
      sig = "*";
      sig_resource(slot->with.front(), sig);
    } else {
      sig = spec_signature(job.spec);
    }
    s.id = shapes_.try_emplace(std::move(sig),
                               static_cast<std::int32_t>(shapes_.size()))
               .first->second;
  }
  // Everything else that shapes a match outcome is part of the key: the
  // traversal mode changes which selections are attempted, and the
  // reservation depth which op the pass asks for. A verdict recorded
  // under one configuration must never answer another — a jobspec
  // first-match cannot place may still be placeable by the scored walk
  // (and vice versa), even within one mutation epoch.
  return CacheKey{s.id, allow_reserve, traversal_mode_, anchor,
                  reservation_depth_};
}

const JobQueue::BlockedVerdict* JobQueue::find_verdict(const Job& job,
                                                       const CacheKey& key,
                                                       bool& dominated) const {
  dominated = false;
  const auto it = blocked_.find(key);
  if (it == blocked_.end()) return nullptr;
  const Job::CacheShape& s = job.cache_shape;
  for (const BlockedVerdict& v : it->second) {
    if (v.n == s.n && v.d == s.d) return &v;
  }
  // Dominance needs: a plain allocate (a reserve searches later starts);
  // introspection off, so the walk's attribution would be the bare code
  // that render_blocked gives (the eventlog forces it on); a window inside
  // the horizon, or the walk fails out_of_range instead; and containment
  // edges that form a forest, so no leaf is shared between two units.
  const graph::ResourceGraph& g = traverser_.graph();
  if (!s.dominable || key.reserve || traverser_.introspection() ||
      key.anchor + s.d > g.plan_start() + g.horizon() ||
      g.multi_parent_count() != 0) {
    return nullptr;
  }
  for (const BlockedVerdict& v : it->second) {
    if (v.code == Errc::resource_busy && v.n <= s.n && v.d <= s.d) {
      dominated = true;
      return &v;
    }
  }
  return nullptr;
}

void JobQueue::audit_dominated(const Job& job, TimePoint anchor) const {
  traverser::MatchScratch scratch;
  const traverser::Traverser::Probe p = traverser_.probe(
      job.spec, MatchOp::allocate, anchor, job.id, scratch, traversal_mode_);
  if (!p.ok && p.error.code == Errc::resource_busy) return;
  (void)util::internal_error(
      "queue: job " + std::to_string(job.id) +
      " skipped as dominated, but its walk " +
      (p.ok ? std::string("succeeds") : util::errc_name(p.error.code)));
}

void JobQueue::test_rewind_reservation(JobId id, TimePoint start) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != JobState::reserved) return;
  Job& job = it->second;
  const Duration d = job.end_time - job.start_time;
  job.start_time = start;
  job.end_time = start + d;
  push_event(start, kEventStart, id);
}

JobId JobQueue::submit(jobspec::Jobspec spec, int priority,
                       std::vector<JobId> depends_on) {
  const JobId id = next_id_++;
  Job job;
  job.id = id;
  job.spec = std::move(spec);
  job.submit_time = now_;
  job.priority = priority;
  job.depends_on = std::move(depends_on);
  job.wait_since = now_;
  job.wait_cause =
      job.depends_on.empty() ? WaitCause::resources : WaitCause::dependency;
  if (!job.depends_on.empty()) has_dependencies_ = true;
  if (log_.enabled()) {
    std::vector<std::pair<std::string, std::string>> args;
    args.emplace_back("priority", std::to_string(priority));
    if (!job.depends_on.empty()) {
      std::string deps = "[";
      for (std::size_t i = 0; i < job.depends_on.size(); ++i) {
        if (i) deps += ',';
        deps += std::to_string(job.depends_on[i]);
      }
      deps += ']';
      args.emplace_back("deps", std::move(deps));
    }
    record_event(id, "submit", std::move(args));
  }
  jobs_.emplace(id, std::move(job));
  order_.push_back(id);
  insert_pending(id);
  ++stats_.submitted;
  sample_depth();
  obs::trace().sim_instant("submit", static_cast<double>(now_), id);
  return id;
}

util::Expected<ExportedJob> JobQueue::export_pending(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Error{util::Errc::not_found, "export: unknown job"};
  }
  Job& job = it->second;
  if (job.state != JobState::pending) {
    return util::Error{util::Errc::invalid_argument,
                       std::string("export: job is ") +
                           job_state_name(job.state) + ", not pending"};
  }
  if (!job.depends_on.empty()) {
    return util::Error{util::Errc::invalid_argument,
                       "export: job has dependencies (queue-local ids)"};
  }
  for (const auto& [other_id, other] : jobs_) {
    if (!has_dependencies_) break;  // no job in this queue depends on any
    if (other.state == JobState::completed ||
        other.state == JobState::canceled ||
        other.state == JobState::rejected) {
      continue;
    }
    for (JobId dep : other.depends_on) {
      if (dep == id) {
        return util::Error{util::Errc::invalid_argument,
                           "export: job " + std::to_string(other_id) +
                               " depends on it"};
      }
    }
  }
  mark_wait(job, job.wait_cause);  // close the open wait interval
  if (log_.enabled()) {
    record_event(id, "export",
                 label_.empty()
                     ? std::vector<std::pair<std::string, std::string>>{}
                     : std::vector<std::pair<std::string, std::string>>{
                           {"member", obs::event_str(label_)}});
  }
  ExportedJob out;
  out.spec = std::move(job.spec);
  out.priority = job.priority;
  out.submit_time = job.submit_time;
  out.wait = job.wait;
  for (const obs::JobEvent* ev : log_.for_job(id)) out.history.push_back(*ev);
  pending_.erase(std::find(pending_.begin(), pending_.end(), id));
  order_.erase(std::find(order_.begin(), order_.end(), id));
  jobs_.erase(it);
  if (obs::enabled()) {
    obs::monitor().queue_depth.set(static_cast<std::int64_t>(pending_.size()));
  }
  return out;
}

JobId JobQueue::import_job(ExportedJob in) {
  const JobId id = next_id_++;
  Job job;
  job.id = id;
  job.spec = std::move(in.spec);
  job.submit_time = in.submit_time;
  job.priority = in.priority;
  job.wait = in.wait;
  job.wait_since = now_;
  job.wait_cause = WaitCause::resources;
  if (log_.enabled()) {
    // Replay the carried history under the new id so this queue's log
    // tells the job's whole story, then stamp the arrival.
    for (obs::JobEvent& ev : in.history) {
      log_.record(ev.time, id, std::move(ev.kind), std::move(ev.args));
    }
    record_event(id, "import",
                 label_.empty()
                     ? std::vector<std::pair<std::string, std::string>>{}
                     : std::vector<std::pair<std::string, std::string>>{
                           {"member", obs::event_str(label_)}});
  }
  jobs_.emplace(id, std::move(job));
  order_.push_back(id);
  insert_pending(id);
  ++stats_.submitted;
  sample_depth();
  return id;
}

std::int64_t JobQueue::pending_work() const {
  std::int64_t work = 0;
  for (JobId id : pending_) {
    const Job& job = jobs_.at(id);
    std::int64_t units = 0;
    for (const auto& [type, n] : job.spec.aggregate_counts()) units += n;
    work += units * job.spec.duration;
  }
  return work;
}

std::optional<TimePoint> JobQueue::dependency_gate(const Job& job) const {
  TimePoint earliest = now_;
  for (JobId dep_id : job.depends_on) {
    auto it = jobs_.find(dep_id);
    if (it == jobs_.end()) return std::nullopt;  // unknown = failed
    const Job& dep = it->second;
    switch (dep.state) {
      case JobState::canceled:
      case JobState::rejected:
        return std::nullopt;
      case JobState::completed:
      case JobState::running:
      case JobState::reserved:
        earliest = std::max(earliest, dep.end_time);
        break;
      case JobState::pending:
      case JobState::held:
        return util::kMaxTime;  // end unknown yet; defer
    }
  }
  return earliest;
}

void JobQueue::try_place(Job& job, bool allow_reserve) {
  // Dependencies bound the earliest start: a reservation may target their
  // (already committed) end times directly.
  TimePoint anchor = now_;
  if (!job.depends_on.empty()) {
    // Callers pre-check the gate, but re-derive it defensively: a failed
    // dependency rejects the job, an unknown end time leaves it pending.
    const auto gate = dependency_gate(job);
    if (!gate) {
      reject_job(job, "dependency_failed");
      return;
    }
    if (*gate == util::kMaxTime) {
      note_dependency_wait(job);
      return;  // stays pending
    }
    anchor = *gate;
  }
  const char* op_label = allow_reserve ? "allocate_orelse_reserve" : "allocate";
  // Satisfiability cache: an identical request (spec + op + anchor) that
  // already failed since the last mutation will fail identically, and so
  // will a dominable allocate asking for more units or a longer window —
  // skip the traversal and replay the recorded outcome (including its
  // rendered attribution, so the eventlog reads the same either way).
  // Failed matches are side-effect-free, so skipping one cannot change
  // later placements.
  CacheKey key;
  if (match_cache_enabled_) {
    key = cache_key(job, allow_reserve, anchor);
    bool dominated = false;
    if (const BlockedVerdict* hit = find_verdict(job, key, dominated)) {
      ++stats_.match_skipped;
      if (dominated) {
        ++stats_.match_dominated;
        if (traverser_.audit_enabled()) audit_dominated(job, anchor);
      }
      // A dominated skip renders the attribution afresh: introspection is
      // off, so the walk's would be the bare code as well.
      std::vector<std::pair<std::string, std::string>> attrib =
          dominated ? render_blocked(Errc::resource_busy) : hit->attrib;
      if (log_.enabled()) {
        record_event(job.id, "probe",
                     {{"op", obs::event_str(op_label)},
                      {"anchor", std::to_string(anchor)}});
        record_event(job.id, "blocked", attrib);
      }
      job.last_blocked = std::move(attrib);
      job.last_blocked_time = now_;
      if (hit->code != Errc::resource_busy) {
        reject_job(job, util::errc_name(hit->code));
      } else {
        mark_wait(job, WaitCause::resources);
      }
      return;  // resource_busy: stays pending
    }
  }
  ++stats_.match_calls;
  if (log_.enabled()) {
    record_event(job.id, "probe",
                 {{"op", obs::event_str(op_label)},
                  {"anchor", std::to_string(anchor)}});
  }
  auto r = run_match(job, allow_reserve, anchor);

  if (r) {
    job.start_time = r->at;
    job.end_time = r->at + r->duration;
    job.resources = std::move(r->resources);
    if (r->at > now_) {
      job.state = JobState::reserved;
      note_reservation_made();
      mark_wait(job, WaitCause::reservation);
      push_event(job.start_time, kEventStart, job.id);
      if (log_.enabled()) {
        record_event(job.id, "reserve",
                     {{"start", std::to_string(job.start_time)},
                      {"end", std::to_string(job.end_time)}});
      }
      obs::trace().sim_instant(
          "reserve", static_cast<double>(now_), job.id,
          {{"start", std::to_string(job.start_time)}});
    } else {
      job.state = JobState::running;
      ++stats_.started_immediately;
      mark_wait(job, WaitCause::resources);  // wait over; close the interval
      push_event(job.end_time, kEventCompletion, job.id);
      if (log_.enabled()) {
        record_event(job.id, "alloc", {{"end", std::to_string(job.end_time)}});
      }
      record_event(job.id, "start");
      obs::trace().sim_instant("start", static_cast<double>(job.start_time),
                               job.id);
    }
    return;
  }
  const Errc code = r.error().code;
  auto attrib = render_blocked(code);
  if (log_.enabled()) record_event(job.id, "blocked", attrib);
  job.last_blocked = attrib;
  job.last_blocked_time = now_;
  if (match_cache_enabled_ &&
      (code == Errc::resource_busy || code == Errc::unsatisfiable)) {
    blocked_[key].push_back(BlockedVerdict{code, job.cache_shape.n,
                                           job.cache_shape.d,
                                           std::move(attrib)});
  }
  switch (code) {
    case Errc::resource_busy:
      mark_wait(job, WaitCause::resources);
      break;  // stays pending
    default:
      reject_job(job, util::errc_name(code));
      break;
  }
}

util::Expected<traverser::MatchResult> JobQueue::run_match(
    Job& job, bool allow_reserve, TimePoint anchor) {
  const MatchOp op =
      allow_reserve ? MatchOp::allocate_orelse_reserve : MatchOp::allocate;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = traverser_.match(job.spec, op, anchor, job.id, traversal_mode_);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  job.match_seconds += secs;
  stats_.total_match_seconds += secs;
  return r;
}

void JobQueue::sample_depth() const {
  if (!obs::enabled()) return;
  auto& m = obs::monitor();
  m.queue_depth.set(static_cast<std::int64_t>(pending_.size()));
  m.queue_depth_samples.add(static_cast<double>(pending_.size()));
}

void JobQueue::note_reservation_made() {
  ++reservations_live_;
  ++stats_.reserved;
  ++stats_.reservations_made;
}

void JobQueue::note_reservation_dropped() {
  --reservations_live_;
  --stats_.reserved;
  ++stats_.reservations_dropped;
}

void JobQueue::audit_reservation_count() {
  std::size_t recount = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::reserved) ++recount;
  }
  if (recount == reservations_live_) return;
  (void)util::internal_error(
      "queue: live reservation count " + std::to_string(reservations_live_) +
      " but " + std::to_string(recount) + " jobs are reserved");
  reservations_live_ = recount;
}

void JobQueue::set_match_threads(std::size_t n) {
  if (n != 1) {
    (void)util::internal_error("queue: match_threads " + std::to_string(n) +
                               " requested; the queue matches on one thread");
  }
}

void JobQueue::schedule() {
  ++stats_.schedule_passes;
  if (traverser_.audit_enabled()) audit_reservation_count();
  if (pending_.empty()) return;
  switch (policy_) {
    case QueuePolicy::fcfs: {
      while (!pending_.empty()) {
        Job& job = jobs_.at(pending_.front());
        const auto gate = dependency_gate(job);
        if (!gate) {
          reject_job(job, "dependency_failed");
          pending_.pop_front();
          continue;
        }
        if (*gate > now_) {  // head waits on its dependencies
          note_dependency_wait(job);
          break;
        }
        try_place(job, /*allow_reserve=*/false);
        if (job.state == JobState::pending) break;  // strict order
        pending_.pop_front();
      }
      break;
    }
    case QueuePolicy::conservative_backfill: {
      // Every dependency-ready job gets an allocation or a firm
      // reservation, in order; repeat until a pass makes no progress so
      // freshly-placed dependencies unlock their dependents immediately.
      // A reservation depth bounds how many reservations may be live at
      // once: past it, jobs may still allocate immediately but no longer
      // reserve, trading guarantee coverage for planner-span pressure.
      bool progress = true;
      while (progress) {
        progress = false;
        std::deque<JobId> still;
        while (!pending_.empty()) {
          const JobId id = pending_.front();
          pending_.pop_front();
          Job& job = jobs_.at(id);
          const auto gate = dependency_gate(job);
          if (!gate) {
            reject_job(job, "dependency_failed");
            progress = true;
            continue;
          }
          if (*gate == util::kMaxTime) {
            note_dependency_wait(job);
            still.push_back(id);  // a dependency has no end time yet
            continue;
          }
          const bool may_reserve = reservation_depth_ == 0 ||
                                   reservations_live_ < reservation_depth_;
          if (!may_reserve && *gate > now_) {
            // Anchored at a dependency's future end, even a plain
            // allocate is a reservation: past the depth it waits.
            note_dependency_wait(job);
            still.push_back(id);
            continue;
          }
          try_place(job, may_reserve);
          if (job.state == JobState::pending) {
            still.push_back(id);
          } else {
            progress = true;
          }
        }
        pending_ = std::move(still);
        if (pending_.empty()) break;
      }
      break;
    }
    case QueuePolicy::easy_backfill:
    case QueuePolicy::hybrid_backfill: {
      // One opportunistic pass; blocked jobs may reserve up to a budget:
      // exactly one for EASY (the head blocked job), reservation_depth_
      // for hybrid (0 = every blocked job, conservative-strength
      // guarantees with EASY's single-pass structure).
      const std::size_t budget =
          policy_ == QueuePolicy::easy_backfill
              ? 1
              : (reservation_depth_ == 0 ? pending_.size() + reservations_live_
                                         : reservation_depth_);
      std::deque<JobId> still_pending;
      while (!pending_.empty()) {
        const JobId id = pending_.front();
        pending_.pop_front();
        Job& job = jobs_.at(id);
        const auto gate = dependency_gate(job);
        if (!gate) {
          reject_job(job, "dependency_failed");
          continue;
        }
        if (*gate > now_) {
          note_dependency_wait(job);
          still_pending.push_back(id);  // dependencies not done yet
          continue;
        }
        try_place(job, /*allow_reserve=*/false);
        if (job.state == JobState::pending) {
          if (reservations_live_ < budget) {
            try_place(job, /*allow_reserve=*/true);
          }
          if (job.state == JobState::pending) still_pending.push_back(id);
        }
      }
      pending_ = std::move(still_pending);
      break;
    }
  }
  sample_depth();
}

TimePoint JobQueue::next_event() const {
  // O(stale log n): peeking sheds entries invalidated by state
  // transitions since they were pushed; every remaining top is a live
  // start/completion. An overdue start (only reachable through external
  // rewinds; re-plans always target the future) fires at now, not
  // now + 1 — callers must never have to spin the clock one tick at a
  // time to reach a due event.
  prune_stale_events();
  if (events_.empty()) return util::kMaxTime;
  return std::max(events_.top().time, now_);
}

util::Status JobQueue::fire_events_up_to(TimePoint t) {
  // Pop the event heap strictly in (time, start-before-completion, id)
  // order up to and including t. Best-effort: every due event fires even
  // when a purge reports corruption, so the queue's view of time stays
  // coherent; the first failure is surfaced once the clock has caught up.
  util::Status first = util::Status::ok();
  while (true) {
    prune_stale_events();
    if (events_.empty()) break;
    const Event ev = events_.top();
    // An overdue event (time already behind the clock) fires at now_.
    const TimePoint fire_at = std::max(ev.time, now_);
    if (fire_at > t) break;
    events_.pop();
    ++stats_.heap_pops;
    ++stats_.events_fired;
    // The clock follows the events so trace timestamps are monotone and
    // any observer callout sees a coherent now().
    now_ = fire_at;
    Job& job = jobs_.at(ev.id);
    if (ev.kind == kEventStart) {
      job.state = JobState::running;
      --reservations_live_;
      job.start_time = fire_at;  // no-op unless the start was overdue
      mark_wait(job, WaitCause::resources);  // close the reservation wait
      push_event(job.end_time, kEventCompletion, job.id);
      record_event(ev.id, "start");
      obs::trace().sim_instant("start", static_cast<double>(fire_at), ev.id);
    } else {
      job.state = JobState::completed;
      job.end_time = fire_at;  // no-op unless the completion was overdue
      ++stats_.completed;
      if (log_.enabled()) {
        record_event(
            ev.id, "finish",
            {{"wait_resources", std::to_string(job.wait.resources)},
             {"wait_reservation", std::to_string(job.wait.reservation)},
             {"wait_held", std::to_string(job.wait.held)},
             {"wait_dependency", std::to_string(job.wait.dependency)}});
      }
      if (obs::enabled()) {
        auto& m = obs::monitor();
        m.job_wait.add(static_cast<double>(job.start_time - job.submit_time));
        m.job_turnaround.add(static_cast<double>(job.end_time -
                                                 job.submit_time));
        m.wait_resources.add(static_cast<double>(job.wait.resources));
        m.wait_reservation.add(static_cast<double>(job.wait.reservation));
        m.wait_held.add(static_cast<double>(job.wait.held));
        m.wait_dependency.add(static_cast<double>(job.wait.dependency));
      }
      if (obs::trace().enabled()) {
        obs::trace().sim_span(
            "run", static_cast<double>(job.start_time),
            static_cast<double>(job.end_time - job.start_time), ev.id);
        obs::trace().sim_instant("complete",
                                 static_cast<double>(job.end_time), ev.id);
      }
      // Purge the traverser's bookkeeping; the spans are in the past.
      auto st = traverser_.cancel(ev.id);
      if (!st && first) first = st;
    }
  }
  return first;
}

util::Status JobQueue::advance_to(TimePoint t) {
  if (t < now_) {
    return util::Error{Errc::invalid_argument,
                       "advance_to: simulated time cannot move backward"};
  }
  util::Status fired = fire_events_up_to(t);
  now_ = t;
  return fired;
}

util::Expected<TimePoint> JobQueue::run_to_completion() {
  while (true) {
    schedule();
    const TimePoint t = next_event();
    if (t == util::kMaxTime) {
      // Idle system yet unplaceable: the head job can never run.
      if (reject_head_never_satisfiable()) continue;
      break;
    }
    if (auto st = advance_to(t); !st) return st.error();
  }
  return now_;
}

bool JobQueue::reject_head_never_satisfiable() {
  if (pending_.empty()) return false;
  Job& job = jobs_.at(pending_.front());
  reject_job(job, "never_satisfiable");
  pending_.pop_front();
  return true;
}

util::Status JobQueue::hold(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "hold: unknown job"};
  }
  Job& job = it->second;
  util::Status released = util::Status::ok();
  switch (job.state) {
    case JobState::pending:
      pending_.erase(std::find(pending_.begin(), pending_.end(), id));
      break;
    case JobState::reserved: {
      // traverser::cancel is best-effort, so the reservation is dropped
      // from the bookkeeping even when the span release reports
      // corruption; finish the hold and surface the status afterwards.
      released = traverser_.cancel(id);
      note_reservation_dropped();
      job.start_time = -1;
      job.end_time = -1;
      job.resources.clear();
      break;
    }
    default:
      return util::Error{Errc::invalid_argument,
                         "hold: job not pending or reserved"};
  }
  job.state = JobState::held;
  mark_wait(job, WaitCause::held);
  record_event(id, "hold");
  return released;
}

util::Status JobQueue::release(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "release: unknown job"};
  }
  Job& job = it->second;
  if (job.state != JobState::held) {
    return util::Error{Errc::invalid_argument, "release: job not held"};
  }
  job.state = JobState::pending;
  // Back to pending; the next schedule pass reclassifies to dependency
  // wait if the gate defers.
  mark_wait(job, WaitCause::resources);
  record_event(id, "release");
  insert_pending(id);
  return util::Status::ok();
}

util::Status JobQueue::cancel(JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return util::Error{Errc::not_found, "cancel: unknown job"};
  }
  Job& job = it->second;
  util::Status released = util::Status::ok();
  switch (job.state) {
    case JobState::pending:
      pending_.erase(std::find(pending_.begin(), pending_.end(), id));
      break;
    case JobState::held:
      break;  // not in pending_, nothing committed
    case JobState::reserved:
    case JobState::running:
      // Best-effort: the job leaves the queue's books regardless; the
      // first release failure is reported after the cascade completes.
      if (job.state == JobState::reserved) note_reservation_dropped();
      released = traverser_.cancel(id);
      break;
    default:
      return util::Error{Errc::invalid_argument,
                         "cancel: job already terminal"};
  }
  const bool was_waiting = job.state != JobState::running;
  job.state = JobState::canceled;
  if (was_waiting) mark_wait(job, job.wait_cause);  // close the open interval
  record_event(id, "cancel");
  obs::trace().sim_instant("cancel", static_cast<double>(now_), id);
  reject_broken_dependents(released);
  return released;
}

void JobQueue::reject_broken_dependents(util::Status& released) {
  // Cascade: dependents that have not started yet (pending or holding a
  // future reservation) can no longer run — their input is gone.
  if (!has_dependencies_) return;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [jid, j] : jobs_) {
      if (j.state != JobState::pending && j.state != JobState::reserved) {
        continue;
      }
      if (j.depends_on.empty()) continue;
      if (dependency_gate(j)) continue;  // deps still fine
      if (j.state == JobState::reserved) {
        note_reservation_dropped();
        auto st = traverser_.cancel(jid);
        if (!st && released) released = st;
      } else {
        pending_.erase(std::find(pending_.begin(), pending_.end(), jid));
      }
      reject_job(j, "dependency_failed");
      changed = true;
    }
  }
}

void JobQueue::insert_pending(JobId id) {
  // Before the first strictly-lower-priority entry: FIFO within a level.
  const int priority = jobs_.at(id).priority;
  pending_.insert(std::find_if(pending_.begin(), pending_.end(),
                               [&](JobId p) {
                                 return jobs_.at(p).priority < priority;
                               }),
                  id);
}

void JobQueue::enqueue_pending(Job& job) {
  // Charge whatever wait interval is open (none for a running job being
  // requeued — its time since start was runtime, not wait), then start a
  // fresh resource-wait segment.
  if (job.state == JobState::reserved) {
    mark_wait(job, WaitCause::resources);
  } else {
    job.wait_since = now_;
    job.wait_cause = WaitCause::resources;
  }
  job.state = JobState::pending;
  job.start_time = -1;
  job.end_time = -1;
  job.resources.clear();
  insert_pending(job.id);
}

EvictResult JobQueue::evict_on(graph::VertexId vertex, EvictPolicy policy) {
  EvictResult result;
  const auto& g = traverser_.graph();
  if (vertex >= g.vertex_count()) return result;
  const std::string path = g.vertex(vertex).path;
  // Snapshot the ids first: evicting mutates job state mid-iteration.
  std::vector<JobId> affected;
  for (const JobId id : order_) {
    const Job& job = jobs_.at(id);
    if (job.state != JobState::running && job.state != JobState::reserved) {
      continue;
    }
    for (const auto& ru : job.resources) {
      if (g.in_subtree(ru.vertex, vertex)) {
        affected.push_back(id);
        break;
      }
    }
  }
  for (const JobId id : affected) {
    Job& job = jobs_.at(id);
    if (job.state != JobState::running && job.state != JobState::reserved) {
      continue;  // a kill's dependency cascade already settled this job
    }
    auto st = traverser_.cancel(id);
    if (!st && result.released) result.released = st;
    if (job.state == JobState::reserved) {
      // Reservation re-planned: the next schedule() pass finds it a new
      // start on the surviving resources.
      replan(job, path);
      result.replanned.push_back(id);
    } else if (policy == EvictPolicy::requeue) {
      enqueue_pending(job);
      result.requeued.push_back(id);
      if (obs::enabled()) obs::monitor().dyn_evicted_requeued.inc();
      record_event(id, "evict",
                   {{"on", obs::event_str(path)},
                    {"action", obs::event_str("requeue")}});
      obs::trace().sim_instant("evict", static_cast<double>(now_), id,
                               {{"on", obs::trace_str(path)},
                                {"action", obs::trace_str("requeue")}});
      replan_dependents(path, result);
    } else {
      job.state = JobState::canceled;
      result.killed.push_back(id);
      if (obs::enabled()) obs::monitor().dyn_evicted_killed.inc();
      record_event(id, "evict",
                   {{"on", obs::event_str(path)},
                    {"action", obs::event_str("kill")}});
      obs::trace().sim_instant("evict", static_cast<double>(now_), id,
                               {{"on", obs::trace_str(path)},
                                {"action", obs::trace_str("kill")}});
      reject_broken_dependents(result.released);
    }
  }
  sample_depth();
  return result;
}

void JobQueue::replan(Job& job, const std::string& on) {
  note_reservation_dropped();
  enqueue_pending(job);
  if (obs::enabled()) obs::monitor().dyn_replanned.inc();
  record_event(job.id, "replan", {{"on", obs::event_str(on)}});
  obs::trace().sim_instant("replan", static_cast<double>(now_), job.id,
                           {{"on", obs::trace_str(on)}});
}

void JobQueue::replan_dependents(const std::string& on, EvictResult& result) {
  // A requeued job has no known end any more, so a dependent holding a
  // reservation anchored on its old end would start too early: drop it
  // and let the next pass place it behind the dependency again
  // (transitively, through dependents of dependents).
  if (!has_dependencies_) return;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const JobId id : order_) {
      Job& j = jobs_.at(id);
      if (j.state != JobState::reserved || j.depends_on.empty()) continue;
      const auto gate = dependency_gate(j);
      if (!gate || *gate <= j.start_time) continue;
      auto st = traverser_.cancel(id);
      if (!st && result.released) result.released = st;
      replan(j, on);
      result.replanned.push_back(id);
      changed = true;
    }
  }
}

std::vector<JobId> JobQueue::replan_reserved() {
  std::vector<JobId> replanned;
  for (const JobId id : order_) {
    Job& job = jobs_.at(id);
    if (job.state != JobState::reserved) continue;
    (void)traverser_.cancel(id);
    replan(job, "grow");
    replanned.push_back(id);
  }
  return replanned;
}

const Job* JobQueue::find(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

namespace {

/// Strip the JSON quoting off a rendered arg value for human output.
std::string unquote(const std::string& v) {
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    return v.substr(1, v.size() - 2);
  }
  return v;
}

const std::string* arg_value(
    const std::vector<std::pair<std::string, std::string>>& args,
    const char* key) {
  for (const auto& [k, v] : args) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

std::string JobQueue::explain(JobId id) const {
  std::string out = "job " + std::to_string(id) + ": ";
  const Job* job = find(id);
  if (!job) {
    out += "unknown\n";
    return out;
  }
  out += job_state_name(job->state);
  out += " (policy ";
  out += queue_policy_name(policy_);
  out += ", now t=" + std::to_string(now_) + ")\n";
  if (!label_.empty()) out += "  member " + label_ + "\n";
  out += "  submitted t=" + std::to_string(job->submit_time);
  if (job->priority != 0) {
    out += ", priority " + std::to_string(job->priority);
  }
  if (!job->depends_on.empty()) {
    out += ", depends on";
    for (JobId d : job->depends_on) out += " " + std::to_string(d);
  }
  out += "\n";
  if (job->start_time >= 0) {
    out += "  window t=" + std::to_string(job->start_time) + " .. t=" +
           std::to_string(job->end_time) + "\n";
  }
  // Wait decomposition, including the interval still open for a job that
  // is waiting right now.
  WaitBreakdown w = job->wait;
  const bool waiting = job->state == JobState::pending ||
                       job->state == JobState::held ||
                       job->state == JobState::reserved;
  if (waiting) w.of(job->wait_cause) += now_ - job->wait_since;
  out += "  waited " + std::to_string(w.total()) + "s:";
  out += " resources " + std::to_string(w.resources) + "s,";
  out += " reservation " + std::to_string(w.reservation) + "s,";
  out += " held " + std::to_string(w.held) + "s,";
  out += " dependency " + std::to_string(w.dependency) + "s";
  if (waiting) {
    out += " (now waiting on ";
    out += wait_cause_name(job->wait_cause);
    out += ")";
  }
  out += "\n";
  if (!job->last_blocked.empty()) {
    out += "  last blocked t=" + std::to_string(job->last_blocked_time);
    if (const auto* code = arg_value(job->last_blocked, "code")) {
      out += ": " + unquote(*code);
    }
    out += "\n";
    if (const auto* dom = arg_value(job->last_blocked, "dominant")) {
      out += "    dominant blocker: " + unquote(*dom) + "\n";
    }
    std::string tallies;
    for (const auto& [k, v] : job->last_blocked) {
      if (k == "code" || k == "dominant" || k == "hint") continue;
      if (!tallies.empty()) tallies += ", ";
      tallies += k + " " + v;
    }
    if (!tallies.empty()) out += "    rejections: " + tallies + "\n";
    if (const auto* hint = arg_value(job->last_blocked, "hint")) {
      out += "    earliest feasible: t=" + *hint + "\n";
    } else if (traverser_.introspection()) {
      out += "    earliest feasible: unknown\n";
    }
  } else if (!traverser_.introspection() && waiting) {
    out += "  (enable introspection/eventlog for blocked-reason detail)\n";
  }
  if (log_.enabled()) {
    const auto evs = log_.for_job(id);
    out += "  events (" + std::to_string(evs.size()) + "):\n";
    for (const obs::JobEvent* ev : evs) {
      out += "    " + obs::EventLog::to_json(*ev) + "\n";
    }
  }
  return out;
}

QueueMetrics JobQueue::metrics() const {
  QueueMetrics m;
  const auto& g = traverser_.graph();
  const auto node_type = g.find_type("node");
  double wait_sum = 0;
  double turnaround_sum = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state != JobState::completed) continue;
    ++m.completed;
    const TimePoint wait = job.start_time - job.submit_time;
    wait_sum += static_cast<double>(wait);
    m.max_wait = std::max(m.max_wait, wait);
    turnaround_sum += static_cast<double>(job.end_time - job.submit_time);
    m.makespan = std::max(m.makespan, job.end_time);
    if (node_type) {
      std::int64_t nodes = 0;
      for (const auto& ru : job.resources) {
        if (g.vertex(ru.vertex).type == *node_type) nodes += ru.units;
      }
      m.node_seconds += nodes * (job.end_time - job.start_time);
    }
  }
  if (m.completed > 0) {
    m.avg_wait = wait_sum / static_cast<double>(m.completed);
    m.avg_turnaround = turnaround_sum / static_cast<double>(m.completed);
  }
  return m;
}

}  // namespace fluxion::queue
