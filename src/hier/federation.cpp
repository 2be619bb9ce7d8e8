#include "hier/federation.hpp"

#include <algorithm>
#include <chrono>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"
#include "util/time.hpp"

namespace fluxion::hier {

using util::Errc;

const char* route_policy_name(RoutePolicy p) noexcept {
  switch (p) {
    case RoutePolicy::round_robin: return "round_robin";
    case RoutePolicy::least_loaded: return "least_loaded";
    case RoutePolicy::locality: return "locality";
  }
  return "unknown";
}

std::optional<RoutePolicy> parse_route_policy(std::string_view name) noexcept {
  if (name == "round_robin" || name == "round-robin" || name == "rr") {
    return RoutePolicy::round_robin;
  }
  if (name == "least_loaded" || name == "least-loaded" || name == "ll") {
    return RoutePolicy::least_loaded;
  }
  if (name == "locality") return RoutePolicy::locality;
  return std::nullopt;
}

namespace {

/// FNV-1a: a stable, implementation-independent hash so locality routing
/// pins the same signature to the same leaf on every platform.
std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t type_total(const graph::ResourceGraph& g, const char* type) {
  const auto t = g.find_type(type);
  if (!t) return 0;
  std::int64_t n = 0;
  for (auto v : g.vertices_of_type(*t)) n += g.vertex(v).size;
  return n;
}

}  // namespace

util::Expected<std::unique_ptr<Federation>> Federation::create(
    const grug::Recipe& recipe, const FederationConfig& cfg,
    const core::Options& options) {
  if (cfg.match_threads != 1) {
    return util::Error{Errc::invalid_argument,
                       "federation: match_threads must be 1"};
  }
  auto fed = std::unique_ptr<Federation>(new Federation);
  fed->cfg_ = cfg;
  if (fed->cfg_.levels < 1) fed->cfg_.levels = 1;
  auto root = Instance::create_root(recipe, options);
  if (!root) return root.error();
  fed->root_ = std::move(*root);

  const auto& g = fed->root_->engine().graph();
  const std::int64_t total_nodes = type_total(g, "node");
  const std::int64_t total_cores = type_total(g, "core");
  if (total_nodes <= 0) {
    return util::Error{Errc::invalid_argument,
                       "federation: machine has no node vertices"};
  }
  const std::int64_t cores_per_node =
      std::max<std::int64_t>(1, total_cores / total_nodes);

  auto add_member = [&](std::string name, Instance* inst,
                        std::int64_t capacity, bool is_root, bool label) {
    auto m = std::make_unique<Member>();
    m->name = std::move(name);
    m->instance = inst;
    m->capacity_nodes = capacity;
    m->is_root = is_root;
    m->queue = std::make_unique<queue::JobQueue>(
        inst->engine().traverser(), fed->cfg_.queue_policy);
    m->queue->set_eventlog(fed->cfg_.eventlog);
    m->queue->set_match_cache(fed->cfg_.match_cache);
    m->queue->set_traversal_mode(fed->cfg_.traversal_mode);
    m->queue->set_reservation_depth(fed->cfg_.reservation_depth);
    if (label) m->queue->set_instance_label(m->name);
    fed->members_.push_back(std::move(m));
  };

  if (fed->cfg_.children <= 1) {
    // Degenerate flat federation: the sole member IS the root engine —
    // no grant, no child graph, no member label — so placements and the
    // member eventlog are byte-identical to a plain JobQueue.
    fed->leaves_ = 1;
    add_member("root", fed->root_.get(), total_nodes, /*is_root=*/true,
               /*label=*/false);
  } else {
    std::size_t leaves = 1;
    for (std::size_t l = 0; l < fed->cfg_.levels; ++l) {
      leaves *= fed->cfg_.children;
      if (leaves > 4096) {
        return util::Error{Errc::invalid_argument,
                           "federation: children^levels too large"};
      }
    }
    const std::int64_t per =
        fed->cfg_.nodes_per_leaf > 0
            ? fed->cfg_.nodes_per_leaf
            : total_nodes / static_cast<std::int64_t>(leaves);
    if (per < 1) {
      return util::Error{Errc::invalid_argument,
                         "federation: fewer nodes than leaves"};
    }
    if (per * static_cast<std::int64_t>(leaves) > total_nodes) {
      return util::Error{Errc::invalid_argument,
                         "federation: grants exceed machine capacity"};
    }
    // Spawn level by level; a non-leaf instance's grant covers every
    // node its eventual leaves will own.
    std::vector<Instance*> frontier{fed->root_.get()};
    std::int64_t level_span = per * static_cast<std::int64_t>(leaves) /
                              static_cast<std::int64_t>(fed->cfg_.children);
    for (std::size_t level = 1; level <= fed->cfg_.levels; ++level) {
      std::vector<Instance*> next;
      for (Instance* parent : frontier) {
        for (std::size_t c = 0; c < fed->cfg_.children; ++c) {
          auto grant = jobspec::make(
              {jobspec::slot(
                  level_span,
                  {jobspec::xres("node", 1,
                                 {jobspec::res("core", cores_per_node)})})},
              std::int64_t{1} << 30);
          if (!grant) return grant.error();
          auto child = parent->spawn_child(*grant, options);
          if (!child) return child.error();
          next.push_back(*child);
        }
      }
      frontier = std::move(next);
      level_span /= static_cast<std::int64_t>(fed->cfg_.children);
    }
    fed->leaves_ = frontier.size();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      add_member("child" + std::to_string(i), frontier[i], per,
                 /*is_root=*/false, /*label=*/true);
    }
    add_member("root", fed->root_.get(),
               total_nodes - per * static_cast<std::int64_t>(leaves),
               /*is_root=*/true, /*label=*/true);
  }
  fed->local_to_fed_.resize(fed->members_.size());
  fed->sat_cache_.resize(fed->members_.size());
  if (obs::enabled()) obs::monitor().ensure_hier_members(fed->members_.size());
  return fed;
}

bool Federation::can_satisfy(std::size_t m, const jobspec::Jobspec& js,
                             const std::string& sig) {
  if (members_.size() == 1) return true;
  auto& cache = sat_cache_[m];
  if (auto it = cache.find(sig); it != cache.end()) return it->second;
  const bool ok =
      static_cast<bool>(members_[m]->instance->engine().satisfiability(js));
  cache.emplace(sig, ok);
  return ok;
}

std::optional<std::size_t> Federation::pick_leaf(const jobspec::Jobspec& js,
                                                 const std::string& sig) {
  if (members_.size() == 1) return 0;
  switch (cfg_.route) {
    case RoutePolicy::round_robin: {
      for (std::size_t k = 0; k < leaves_; ++k) {
        const std::size_t i = (rr_cursor_ + k) % leaves_;
        if (can_satisfy(i, js, sig)) {
          rr_cursor_ = (i + 1) % leaves_;
          return i;
        }
      }
      return std::nullopt;
    }
    case RoutePolicy::least_loaded: {
      std::size_t best = leaves_;
      std::int64_t best_work = 0;
      for (std::size_t i = 0; i < leaves_; ++i) {
        if (!can_satisfy(i, js, sig)) continue;
        const std::int64_t w = members_[i]->queue->pending_work();
        if (best == leaves_ || w < best_work) {
          best = i;
          best_work = w;
        }
      }
      if (best == leaves_) return std::nullopt;
      return best;
    }
    case RoutePolicy::locality: {
      const std::size_t home =
          static_cast<std::size_t>(fnv1a(sig) % leaves_);
      for (std::size_t k = 0; k < leaves_; ++k) {
        const std::size_t i = (home + k) % leaves_;
        if (can_satisfy(i, js, sig)) return i;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

FedJobId Federation::submit(jobspec::Jobspec spec, int priority) {
  const FedJobId id = next_fed_id_++;
  inbox_.push_back({id, std::move(spec), priority});
  order_.push_back(id);
  return id;
}

void Federation::pump_routing() {
  while (!inbox_.empty()) {
    InboxEntry entry = std::move(inbox_.front());
    inbox_.pop_front();
    const bool timed = obs::enabled();
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    const std::string sig = members_.size() == 1
                                ? std::string()
                                : queue::spec_signature(entry.spec);
    const auto leaf = pick_leaf(entry.spec, sig);
    std::size_t target;
    if (leaf) {
      target = *leaf;
      ++stats_.routed;
    } else {
      // No leaf can ever satisfy it: the root's whole-machine queue is
      // the court of last resort (it rejects what even it cannot hold).
      target = members_.size() - 1;
      ++stats_.escalated;
    }
    const queue::JobId local =
        members_[target]->queue->submit(std::move(entry.spec), entry.priority);
    refs_[entry.id] = JobRef{target, local};
    local_to_fed_[target][local] = entry.id;
    if (timed) {
      const auto us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      obs::monitor().hier_route_latency_us.add(us);
    }
  }
}

void Federation::steal_pass() {
  if (cfg_.steal_threshold <= 0 || leaves_ < 2) return;
  std::size_t moved = 0;
  while (moved < cfg_.steal_batch) {
    // Backlog per owned node, leaves only (the root serves escalations;
    // its backlog is not a rebalancing signal).
    std::size_t src = leaves_, dst = leaves_;
    double src_load = -1.0, dst_load = 0.0;
    for (std::size_t i = 0; i < leaves_; ++i) {
      const double load =
          static_cast<double>(members_[i]->queue->pending_work()) /
          static_cast<double>(std::max<std::int64_t>(
              1, members_[i]->capacity_nodes));
      if (load > src_load) {
        src = i;
        src_load = load;
      }
      if (dst == leaves_ || load < dst_load) {
        dst = i;
        dst_load = load;
      }
    }
    if (src == dst || src == leaves_ || dst == leaves_) break;
    if (src_load <= cfg_.steal_threshold * dst_load) break;
    if (members_[src]->queue->pending_count() < 2) break;
    // Steal from the back of the overloaded queue (lowest priority,
    // latest arrival) — the job whose expected wait is longest — picking
    // the first candidate the target could ever satisfy.
    bool stole = false;
    const auto& pend = members_[src]->queue->pending_jobs();
    for (auto it = pend.rbegin(); it != pend.rend(); ++it) {
      const queue::Job* job = members_[src]->queue->find(*it);
      if (job == nullptr) continue;
      const std::string sig = queue::spec_signature(job->spec);
      if (!can_satisfy(dst, job->spec, sig)) continue;
      auto exported = members_[src]->queue->export_pending(*it);
      if (!exported) continue;  // dependencies pin it to its queue
      const auto fed_it = local_to_fed_[src].find(*it);
      const FedJobId fed_id =
          fed_it != local_to_fed_[src].end() ? fed_it->second : -1;
      if (fed_it != local_to_fed_[src].end()) local_to_fed_[src].erase(fed_it);
      const queue::JobId local =
          members_[dst]->queue->import_job(std::move(*exported));
      if (fed_id >= 0) {
        local_to_fed_[dst][local] = fed_id;
        refs_[fed_id] = JobRef{dst, local};
      }
      ++moved;
      ++stats_.stolen;
      stole = true;
      break;
    }
    if (!stole) break;
  }
  if (moved > 0) {
    ++stats_.steal_passes;
  }
}

void Federation::update_depth_gauges() {
  if (!obs::enabled()) return;
  auto& m = obs::monitor();
  m.ensure_hier_members(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    m.hier_member_depth[i].set(
        static_cast<std::int64_t>(members_[i]->queue->pending_count()));
  }
}

void Federation::schedule() {
  pump_routing();
  steal_pass();
  for (auto& m : members_) m->queue->schedule();
  update_depth_gauges();
}

TimePoint Federation::next_event() const {
  if (!inbox_.empty()) return now_;
  TimePoint t = util::kMaxTime;
  for (const auto& m : members_) t = std::min(t, m->queue->next_event());
  return t;
}

util::Status Federation::advance_to(TimePoint t) {
  if (t < now_) {
    return util::Error{Errc::invalid_argument,
                       "advance_to: simulated time cannot move backward"};
  }
  util::Status first = util::Status::ok();
  while (true) {
    TimePoint e = util::kMaxTime;
    for (const auto& m : members_) e = std::min(e, m->queue->next_event());
    if (e >= t) break;
    for (auto& m : members_) {
      if (auto st = m->queue->advance_to(e); !st && first) first = st;
    }
    now_ = e;
    schedule();  // completions may unblock pending jobs, as in replay
  }
  for (auto& m : members_) {
    if (auto st = m->queue->advance_to(t); !st && first) first = st;
  }
  now_ = t;
  return first;
}

util::Expected<TimePoint> Federation::run_to_completion() {
  while (true) {
    schedule();
    TimePoint t = util::kMaxTime;
    for (const auto& m : members_) t = std::min(t, m->queue->next_event());
    if (t == util::kMaxTime) {
      bool pending = !inbox_.empty();
      for (const auto& m : members_) {
        pending = pending || m->queue->pending_count() > 0;
      }
      if (!pending) break;
      if (!inbox_.empty()) continue;  // route on the next pass
      // Every member is idle forever yet jobs are still pending: reject
      // each member's head job exactly as the flat drain step would —
      // one per pass, so the reschedule between rejections (and its
      // probe/blocked events) interleaves byte-identically with a flat
      // queue's run_to_completion.
      bool rejected = false;
      for (auto& m : members_) {
        rejected = m->queue->reject_head_never_satisfiable() || rejected;
      }
      if (!rejected) break;  // held/reserved leftovers: no progress
      continue;
    }
    if (auto st = advance_to(t); !st) return st.error();
  }
  return now_;
}

util::Expected<traverser::MatchResult> Federation::match_allocate(
    const jobspec::Jobspec& js) {
  const std::string sig =
      members_.size() == 1 ? std::string() : queue::spec_signature(js);
  auto attempt = [&](std::size_t i) {
    Member& m = *members_[i];
    auto r = m.instance->engine().match_allocate(js);
    last_member_ = m.name;
    last_args_.clear();
    last_args_.emplace_back("member", obs::event_str(m.name));
    if (!r) {
      for (auto& kv : m.instance->engine().traverser().explain_args()) {
        last_args_.push_back(std::move(kv));
      }
    }
    return r;
  };
  const auto leaf = pick_leaf(js, sig);
  if (leaf) {
    auto r = attempt(*leaf);
    if (r || members_.size() == 1) {
      ++stats_.routed;
      return r;
    }
  }
  // pick_leaf always picks the sole member of a flat federation, so only
  // a federation with a root to escalate to gets here.
  ++stats_.escalated;
  return attempt(members_.size() - 1);
}

const Federation::JobRef* Federation::find(FedJobId id) const {
  auto it = refs_.find(id);
  return it == refs_.end() ? nullptr : &it->second;
}

const queue::Job* Federation::find_job(FedJobId id) const {
  const JobRef* ref = find(id);
  if (ref == nullptr) return nullptr;
  return members_[ref->member]->queue->find(ref->local);
}

std::string Federation::explain(FedJobId id) const {
  const JobRef* ref = find(id);
  if (ref == nullptr) {
    for (const auto& e : inbox_) {
      if (e.id == id) {
        return "fed job " + std::to_string(id) +
               ": unrouted (inbox; next schedule pass assigns a member)\n";
      }
    }
    return "fed job " + std::to_string(id) + ": unknown\n";
  }
  const Member& m = *members_[ref->member];
  std::string out = "fed job " + std::to_string(id) + " -> member " +
                    (m.name.empty() ? "root" : m.name) +
                    (m.is_root ? " (escalation queue)" : "") + ", local job " +
                    std::to_string(ref->local) + "\n";
  out += m.queue->explain(ref->local);
  return out;
}

std::string Federation::eventlog_jsonl() const {
  std::string out;
  for (const auto& m : members_) {
    // Only labelled queues (multi-member federations) tag their events;
    // the flat degenerate's sole queue is unlabelled, so its stream is
    // byte-identical to a plain JobQueue's eventlog.
    const std::string& label = m->queue->instance_label();
    for (const obs::JobEvent& ev : m->queue->eventlog().events()) {
      if (label.empty()) {
        out += obs::EventLog::to_json(ev);
      } else {
        obs::JobEvent tagged = ev;
        tagged.args.emplace_back("member", obs::event_str(label));
        out += obs::EventLog::to_json(tagged);
      }
      out += '\n';
    }
  }
  return out;
}

void Federation::invalidate_sat_cache() {
  for (auto& c : sat_cache_) c.clear();
}

std::string Federation::member_snapshot(std::size_t i) {
  Member& m = member(i);
  core::ResourceQuery& eng = m.instance->engine();
  return snapshot::save_engine(eng.graph(), eng.traverser(), m.queue.get());
}

}  // namespace fluxion::hier
