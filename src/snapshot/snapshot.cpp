#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "policy/policies.hpp"
#include "snapshot/codec.hpp"

namespace fluxion::snapshot {

using util::Errc;

namespace {

constexpr char kMagic[4] = {'F', 'L', 'X', 'S'};
constexpr std::uint8_t kFlagQueue = 0x1;

util::Error corrupt(const char* what) {
  return util::Error{Errc::invalid_argument,
                     std::string("snapshot: corrupt input (") + what + ")"};
}

void write_resources(Writer& w,
                     const std::vector<traverser::ResourceUnit>& rs) {
  w.uv(rs.size());
  for (const traverser::ResourceUnit& ru : rs) {
    w.uv(ru.vertex);
    w.iv(ru.units);
    w.u8(ru.exclusive ? 1 : 0);
  }
}

bool read_resources(Reader& r, std::size_t vertex_count,
                    std::vector<traverser::ResourceUnit>& out) {
  const std::uint64_t n = r.uv();
  if (r.failed() || n > vertex_count + 1) return false;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    traverser::ResourceUnit ru;
    ru.vertex = static_cast<graph::VertexId>(r.uv());
    ru.units = r.iv();
    ru.exclusive = r.u8() != 0;
    if (r.failed() || ru.vertex >= vertex_count) return false;
    out.push_back(ru);
  }
  return true;
}

void write_args(
    Writer& w,
    const std::vector<std::pair<std::string, std::string>>& args) {
  w.uv(args.size());
  for (const auto& [k, v] : args) {
    w.str(k);
    w.str(v);
  }
}

bool read_args(Reader& r,
               std::vector<std::pair<std::string, std::string>>& out) {
  const std::uint64_t n = r.uv();
  if (r.failed()) return false;
  for (std::uint64_t i = 0; i < n && !r.failed(); ++i) {
    std::string k = r.str();
    std::string v = r.str();
    out.emplace_back(std::move(k), std::move(v));
  }
  return !r.failed();
}

}  // namespace

std::string EngineSnapshot::save(const graph::ResourceGraph& g,
                                 const traverser::Traverser& t,
                                 const queue::JobQueue* q) {
  Writer w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.uv(kSnapshotVersion);
  w.u8(q != nullptr ? kFlagQueue : 0);

  // --- graph ---------------------------------------------------------------
  w.iv(g.plan_start_);
  w.iv(g.horizon_);
  const auto table = [&w](const util::Interner& in) {
    w.uv(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      w.str(in.name(static_cast<util::InternId>(i)));
    }
  };
  table(g.types_);
  table(g.subsystems_);
  table(g.relations_);
  w.iv(g.next_uniq_id_);
  w.uv(g.vertices_.size());
  for (const graph::Vertex& v : g.vertices_) {
    w.uv(v.type);
    w.str(v.basename);
    w.str(v.name);
    w.iv(v.size);
    w.iv(v.uniq_id);
    w.iv(v.rank);
    w.str(v.path);
    w.uv(v.properties.size());
    for (const auto& [k, val] : v.properties) {
      w.str(k);
      w.str(val);
    }
    w.u8(v.alive ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(v.status));
    w.iv(v.non_up_below);
    w.uv(v.containment_parent);
    if (v.filter != nullptr) {
      // Current totals, not a recount: a downed subtree has already been
      // subtracted from the ancestor filters it sat under.
      w.u8(1);
      w.uv(v.filter->resource_count());
      for (std::size_t i = 0; i < v.filter->resource_count(); ++i) {
        const planner::Planner& p = v.filter->planner_at(i);
        w.str(p.resource_type());
        w.iv(p.total());
      }
    } else {
      w.u8(0);
    }
  }
  for (const auto& edges : g.out_) {
    w.uv(edges.size());
    for (const graph::Edge& e : edges) {
      w.uv(e.dst);
      w.uv(e.subsystem);
      w.uv(e.relation);
    }
  }
  w.uv(g.by_type_.size());
  for (const auto& bucket : g.by_type_) w.id_runs(bucket);
  w.uv(g.subsystem_filter_.size());
  for (util::InternId s : g.subsystem_filter_) w.uv(s);

  // --- traverser -----------------------------------------------------------
  w.uv(t.root_);
  w.str(t.policy_.name());
  w.u8(static_cast<std::uint8_t>(t.mode_));
  w.uv(t.mutation_epoch_);
  w.u8(t.introspect_ ? 1 : 0);
  w.uv(t.stats_.visits);
  w.uv(t.stats_.last_visits);
  w.uv(t.stats_.pruned);
  w.uv(t.stats_.status_pruned);
  w.uv(t.stats_.match_attempts);
  w.uv(t.stats_.first_match_stops);
  w.uv(t.stats_.postorder_rejects);
  w.uv(t.release_times_.size());
  for (const auto& [at, n] : t.release_times_) {
    w.iv(at);
    w.iv(n);
  }
  std::vector<traverser::JobId> job_ids;
  job_ids.reserve(t.jobs_.size());
  for (const auto& [id, rec] : t.jobs_) job_ids.push_back(id);
  std::sort(job_ids.begin(), job_ids.end());
  w.uv(job_ids.size());
  for (traverser::JobId id : job_ids) {
    const auto& rec = t.jobs_.at(id);
    w.iv(id);
    w.iv(rec.result.at);
    w.iv(rec.result.duration);
    w.u8(rec.result.reserved ? 1 : 0);
    write_resources(w, rec.result.resources);
    w.uv(rec.claims.size());
    for (const auto& cc : rec.claims) {
      w.uv(cc.claim.vertex);
      w.iv(cc.claim.units);
      w.u8(cc.claim.exclusive ? 1 : 0);
      w.u8(cc.claim.whole_instance ? 1 : 0);
      w.u8(cc.claim.under_exclusive ? 1 : 0);
      w.iv(cc.window.start);
      w.iv(cc.window.duration);
    }
    // Shared walks carry no window in the record; recover it from the
    // live span (span ids are regenerated on load, windows are what
    // matters).
    w.uv(rec.shared_spans.size());
    for (const auto& [vx, span] : rec.shared_spans) {
      const planner::Span* sp = g.vertices_[vx].x_checker->find_span(span);
      w.uv(vx);
      w.iv(sp != nullptr ? sp->start : 0);
      w.iv(sp != nullptr ? sp->last - sp->start : 0);
    }
    w.uv(rec.filter_spans.size());
    for (const auto& fs : rec.filter_spans) {
      w.uv(fs.vertex);
      w.iv(fs.window.start);
      w.iv(fs.window.duration);
      w.uv(fs.counts.size());
      for (std::int64_t c : fs.counts) w.iv(c);
    }
  }

  // --- queue ---------------------------------------------------------------
  if (q != nullptr) {
    w.u8(static_cast<std::uint8_t>(q->policy_));
    w.str(q->label_);
    w.u8(static_cast<std::uint8_t>(q->traversal_mode_));
    w.uv(q->reservation_depth_);
    w.iv(q->now_);
    w.iv(q->next_id_);
    w.u8(q->match_cache_enabled_ ? 1 : 0);
    w.u8(q->log_.enabled() ? 1 : 0);
    w.uv(q->order_.size());
    for (queue::JobId id : q->order_) {
      const queue::Job& j = q->jobs_.at(id);
      w.iv(j.id);
      w.str(j.spec.to_yaml());
      w.iv(j.submit_time);
      w.iv(j.priority);
      w.uv(j.depends_on.size());
      for (queue::JobId d : j.depends_on) w.iv(d);
      w.u8(static_cast<std::uint8_t>(j.state));
      w.iv(j.start_time);
      w.iv(j.end_time);
      write_resources(w, j.resources);
      w.iv(j.wait.resources);
      w.iv(j.wait.reservation);
      w.iv(j.wait.held);
      w.iv(j.wait.dependency);
      w.iv(j.wait_since);
      w.u8(static_cast<std::uint8_t>(j.wait_cause));
      write_args(w, j.last_blocked);
      w.iv(j.last_blocked_time);
    }
    w.uv(q->pending_.size());
    for (queue::JobId id : q->pending_) w.iv(id);
    const queue::QueueStats& qs = q->stats_;
    w.uv(qs.submitted);
    w.uv(qs.started_immediately);
    w.uv(qs.reserved);
    w.uv(qs.completed);
    w.uv(qs.rejected);
    w.uv(qs.schedule_passes);
    w.uv(qs.events_fired);
    w.uv(qs.heap_pops);
    w.uv(qs.match_calls);
    w.uv(qs.match_skipped);
    w.uv(qs.cache_invalidations);
    w.uv(qs.reservations_made);
    w.uv(qs.reservations_dropped);
    const auto& evs = q->log_.events();
    w.uv(evs.size());
    for (const obs::JobEvent& ev : evs) {
      w.iv(ev.time);
      w.iv(ev.job);
      w.str(ev.kind);
      write_args(w, ev.args);
    }
  }
  return w.take();
}

util::Expected<std::unique_ptr<RestoredEngine>> EngineSnapshot::load(
    std::string_view bytes) {
  Reader r(bytes);
  for (char c : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c)) return corrupt("magic");
  }
  const std::uint64_t version = r.uv();
  if (r.failed()) return corrupt("header");
  if (version < 1 || version > kSnapshotVersion) {
    return util::Error{Errc::invalid_argument,
                       "snapshot: unsupported format version " +
                           std::to_string(version) + " (reader speaks " +
                           std::to_string(kSnapshotVersion) + ")"};
  }
  const std::uint8_t flags = r.u8();

  auto eng = std::make_unique<RestoredEngine>();

  // --- graph ---------------------------------------------------------------
  const util::TimePoint plan_start = r.iv();
  const util::Duration horizon = r.iv();
  if (r.failed() || horizon <= 0) return corrupt("horizon");
  eng->graph = std::make_unique<graph::ResourceGraph>(plan_start, horizon);
  graph::ResourceGraph& g = *eng->graph;
  // Re-intern the saved name tables in id order. The constructor has
  // already interned "containment"/"contains"/"in"; intern() is
  // idempotent, so the saved names — produced by the same constructor on
  // the writer side — must land on their original dense ids.
  const auto table = [&r](util::Interner& in) -> bool {
    const std::uint64_t n = r.uv();
    if (r.failed()) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string name = r.str();
      if (r.failed() || in.intern(name) != i) return false;
    }
    return true;
  };
  if (!table(g.types_)) return corrupt("type table");
  if (!table(g.subsystems_)) return corrupt("subsystem table");
  if (!table(g.relations_)) return corrupt("relation table");
  g.next_uniq_id_ = r.iv();
  const std::uint64_t nverts = r.uv();
  if (r.failed() || nverts > bytes.size()) return corrupt("vertex count");
  g.vertices_.reserve(nverts);
  for (std::uint64_t i = 0; i < nverts; ++i) {
    graph::Vertex v;
    v.id = static_cast<graph::VertexId>(i);
    v.type = static_cast<util::InternId>(r.uv());
    v.basename = r.str();
    v.name = r.str();
    v.size = r.iv();
    v.uniq_id = r.iv();
    v.rank = static_cast<int>(r.iv());
    v.path = r.str();
    const std::uint64_t nprops = r.uv();
    if (r.failed()) return corrupt("vertex");
    for (std::uint64_t p = 0; p < nprops && !r.failed(); ++p) {
      std::string k = r.str();
      v.properties[std::move(k)] = r.str();
    }
    v.alive = r.u8() != 0;
    const std::uint8_t st = r.u8();
    v.non_up_below = static_cast<std::int32_t>(r.iv());
    v.containment_parent = static_cast<graph::VertexId>(r.uv());
    const bool has_filter = r.u8() != 0;
    if (r.failed() || v.type >= g.types_.size() ||
        st >= graph::kStatusCount || v.size < 0) {
      return corrupt("vertex");
    }
    v.status = static_cast<graph::ResourceStatus>(st);
    v.schedule = std::make_unique<planner::Planner>(
        plan_start, horizon, v.size, g.types_.name(v.type));
    v.x_checker = std::make_unique<planner::Planner>(
        plan_start, horizon, graph::kSharedUseMax, "shared-use");
    if (has_filter) {
      v.filter = std::make_unique<planner::PlannerMulti>(plan_start, horizon);
      const std::uint64_t nf = r.uv();
      if (r.failed() || nf > g.types_.size()) return corrupt("filter");
      for (std::uint64_t f = 0; f < nf; ++f) {
        const std::string type = r.str();
        const std::int64_t total = r.iv();
        if (r.failed() || total < 0) return corrupt("filter");
        const auto id = g.types_.find(type);
        if (!v.filter->add_resource(
                type, total, id ? *id : planner::PlannerMulti::kNoId)) {
          return corrupt("filter type");
        }
      }
    }
    g.vertices_.push_back(std::move(v));
  }
  g.out_.resize(nverts);
  std::size_t edge_count = 0;
  for (std::uint64_t i = 0; i < nverts; ++i) {
    const std::uint64_t nedges = r.uv();
    if (r.failed() || nedges > bytes.size()) return corrupt("edges");
    g.out_[i].reserve(nedges);
    for (std::uint64_t e = 0; e < nedges; ++e) {
      graph::Edge edge;
      edge.dst = static_cast<graph::VertexId>(r.uv());
      edge.subsystem = static_cast<util::InternId>(r.uv());
      edge.relation = static_cast<util::InternId>(r.uv());
      if (r.failed() || edge.dst >= nverts ||
          edge.subsystem >= g.subsystems_.size() ||
          edge.relation >= g.relations_.size()) {
        return corrupt("edge");
      }
      g.out_[i].push_back(edge);
      ++edge_count;
      if (edge.relation == g.contains_) g.add_contains_in(edge.dst);
    }
  }
  g.edge_count_ = edge_count;
  // Vertices and edges were written directly, past the mutators that bump
  // the structure epoch: no subtree total cached before the load holds.
  ++g.structure_epoch_;
  const std::uint64_t nbuckets = r.uv();
  if (r.failed() || nbuckets > g.types_.size()) return corrupt("by-type");
  g.by_type_.resize(nbuckets);
  for (std::uint64_t b = 0; b < nbuckets; ++b) {
    g.by_type_[b] = r.id_runs(nverts);
    if (r.failed()) return corrupt("by-type runs");
    for (graph::VertexId id : g.by_type_[b]) {
      if (id >= nverts) return corrupt("by-type id");
    }
  }
  const std::uint64_t nfilter = r.uv();
  if (r.failed() || nfilter > g.subsystems_.size()) {
    return corrupt("subsystem filter");
  }
  g.subsystem_filter_.clear();
  for (std::uint64_t i = 0; i < nfilter; ++i) {
    const auto s = static_cast<util::InternId>(r.uv());
    if (r.failed() || s >= g.subsystems_.size()) {
      return corrupt("subsystem filter");
    }
    g.subsystem_filter_.push_back(s);
  }
  // Derived state: path index and the live/status tallies only count
  // vertices that are still alive (detach erases dead paths).
  for (const graph::Vertex& v : g.vertices_) {
    if (!v.alive) continue;
    ++g.live_count_;
    ++g.status_counts_[static_cast<std::size_t>(v.status)];
    g.by_path_[v.path] = v.id;
  }

  // --- traverser -----------------------------------------------------------
  const auto root = static_cast<graph::VertexId>(r.uv());
  eng->policy_name = r.str();
  if (r.failed() || (nverts > 0 && root >= nverts)) return corrupt("root");
  auto pol = policy::create(eng->policy_name);
  if (!pol) {
    return util::Error{Errc::invalid_argument,
                       "snapshot: unknown match policy '" + eng->policy_name +
                           "'"};
  }
  eng->policy = std::move(*pol);
  eng->root = root;
  eng->traverser =
      std::make_unique<traverser::Traverser>(g, root, *eng->policy);
  traverser::Traverser& t = *eng->traverser;
  const std::uint8_t mode = r.u8();
  if (r.failed() || mode > 1) return corrupt("traversal mode");
  t.mode_ = static_cast<traverser::TraversalMode>(mode);
  t.mutation_epoch_ = r.uv();
  const bool introspect = r.u8() != 0;
  t.stats_.visits = r.uv();
  t.stats_.last_visits = r.uv();
  t.stats_.pruned = r.uv();
  t.stats_.status_pruned = r.uv();
  t.stats_.match_attempts = r.uv();
  t.stats_.first_match_stops = r.uv();
  t.stats_.postorder_rejects = r.uv();
  const std::uint64_t nrel = r.uv();
  if (r.failed() || nrel > bytes.size()) return corrupt("release times");
  for (std::uint64_t i = 0; i < nrel; ++i) {
    const util::TimePoint at = r.iv();
    const std::int64_t n = r.iv();
    if (r.failed()) return corrupt("release times");
    t.release_times_[at] = static_cast<int>(n);
  }
  const std::uint64_t njobs = r.uv();
  if (r.failed() || njobs > bytes.size()) return corrupt("job count");
  for (std::uint64_t j = 0; j < njobs; ++j) {
    const traverser::JobId id = r.iv();
    traverser::Traverser::JobRecord rec;
    rec.result.job = id;
    rec.result.at = r.iv();
    rec.result.duration = r.iv();
    rec.result.reserved = r.u8() != 0;
    if (!read_resources(r, nverts, rec.result.resources)) {
      return corrupt("job resources");
    }
    const std::uint64_t nclaims = r.uv();
    if (r.failed() || nclaims > bytes.size()) return corrupt("claims");
    rec.claims.reserve(nclaims);
    for (std::uint64_t c = 0; c < nclaims; ++c) {
      traverser::Traverser::Claim claim{};
      claim.vertex = static_cast<graph::VertexId>(r.uv());
      claim.units = r.iv();
      claim.exclusive = r.u8() != 0;
      claim.whole_instance = r.u8() != 0;
      claim.under_exclusive = r.u8() != 0;
      util::TimeWindow wdw;
      wdw.start = r.iv();
      wdw.duration = r.iv();
      if (r.failed() || claim.vertex >= nverts) return corrupt("claim");
      rec.claims.push_back({claim, wdw, planner::kInvalidSpan});
    }
    // Coverage is not stored: it follows from the under_exclusive flags,
    // the windows and the graph, exactly as restore derives it. Covered
    // claims are counted on their vertex; the rest get their span back.
    std::multimap<graph::VertexId, util::TimeWindow> whole;
    for (const auto& cc : rec.claims) {
      if (cc.claim.whole_instance) whole.emplace(cc.claim.vertex, cc.window);
    }
    for (auto& cc : rec.claims) {
      cc.claim.covered =
          cc.claim.under_exclusive &&
          t.covered_under(cc.claim.vertex, [&](graph::VertexId a) {
            const auto [lo, hi] = whole.equal_range(a);
            return std::any_of(lo, hi, [&](const auto& e) {
              return e.second.start == cc.window.start &&
                     e.second.duration == cc.window.duration;
            });
          });
    }
    for (auto& cc : rec.claims) {
      graph::Vertex& vx = g.vertices_[cc.claim.vertex];
      if (cc.claim.covered) {
        ++vx.covered_claims;
        continue;
      }
      auto span = vx.schedule->add_span(cc.window.start, cc.window.duration,
                                        cc.claim.units);
      if (!span) {
        return util::Error{Errc::internal,
                           "snapshot: claim replay failed on vertex " +
                               vx.path + ": " + span.error().message};
      }
      cc.span = *span;
    }
    const std::uint64_t nshared = r.uv();
    if (r.failed() || nshared > bytes.size()) return corrupt("shared spans");
    rec.shared_spans.reserve(nshared);
    for (std::uint64_t s = 0; s < nshared; ++s) {
      const auto vx = static_cast<graph::VertexId>(r.uv());
      const util::TimePoint start = r.iv();
      const util::Duration dur = r.iv();
      if (r.failed() || vx >= nverts) return corrupt("shared span");
      auto span = g.vertices_[vx].x_checker->add_span(start, dur, 1);
      if (!span) {
        return util::Error{Errc::internal,
                           "snapshot: shared-span replay failed: " +
                               span.error().message};
      }
      rec.shared_spans.emplace_back(vx, *span);
    }
    const std::uint64_t nfspans = r.uv();
    if (r.failed() || nfspans > bytes.size()) return corrupt("filter spans");
    rec.filter_spans.reserve(nfspans);
    for (std::uint64_t f = 0; f < nfspans; ++f) {
      const auto vx = static_cast<graph::VertexId>(r.uv());
      util::TimeWindow wdw;
      wdw.start = r.iv();
      wdw.duration = r.iv();
      const std::uint64_t ncounts = r.uv();
      if (r.failed() || vx >= nverts || ncounts > g.types_.size() ||
          g.vertices_[vx].filter == nullptr) {
        return corrupt("filter span");
      }
      std::vector<std::int64_t> counts(ncounts);
      for (std::uint64_t k = 0; k < ncounts; ++k) counts[k] = r.iv();
      if (r.failed()) return corrupt("filter span");
      auto span = g.vertices_[vx].filter->add_span(wdw.start, wdw.duration,
                                                   counts);
      if (!span) {
        return util::Error{Errc::internal,
                           "snapshot: filter-span replay failed: " +
                               span.error().message};
      }
      rec.filter_spans.push_back({vx, *span, wdw, std::move(counts)});
    }
    t.jobs_.emplace(id, std::move(rec));
    if (id >= eng->next_job_id) eng->next_job_id = id + 1;
  }
  t.introspect_ = introspect;

  // --- queue ---------------------------------------------------------------
  if ((flags & kFlagQueue) != 0) {
    const std::uint8_t qp = r.u8();
    if (r.failed() || qp > 3) return corrupt("queue policy");
    // Constructed against the already-restored traverser so the ctor's
    // cache-epoch snapshot picks up the saved mutation epoch.
    eng->queue = std::make_unique<queue::JobQueue>(
        t, static_cast<queue::QueuePolicy>(qp));
    queue::JobQueue& q = *eng->queue;
    q.label_ = r.str();
    const std::uint8_t tm = r.u8();
    if (r.failed() || tm > 1) return corrupt("queue traversal mode");
    q.traversal_mode_ = static_cast<traverser::TraversalMode>(tm);
    q.reservation_depth_ = r.uv();
    q.now_ = r.iv();
    q.next_id_ = r.iv();
    q.match_cache_enabled_ = r.u8() != 0;
    const bool log_enabled = r.u8() != 0;
    const std::uint64_t nqjobs = r.uv();
    if (r.failed() || nqjobs > bytes.size()) return corrupt("queue jobs");
    q.order_.reserve(nqjobs);
    for (std::uint64_t i = 0; i < nqjobs; ++i) {
      queue::Job j;
      j.id = r.iv();
      const std::string spec_yaml = r.str();
      if (r.failed()) return corrupt("queue job");
      auto spec = jobspec::Jobspec::from_yaml(spec_yaml);
      if (!spec) {
        return util::Error{Errc::internal,
                           "snapshot: jobspec replay failed: " +
                               spec.error().message};
      }
      j.spec = std::move(*spec);
      j.submit_time = r.iv();
      j.priority = static_cast<int>(r.iv());
      const std::uint64_t ndeps = r.uv();
      if (r.failed() || ndeps > nqjobs) return corrupt("queue job deps");
      for (std::uint64_t d = 0; d < ndeps; ++d) {
        j.depends_on.push_back(r.iv());
      }
      const std::uint8_t st = r.u8();
      if (r.failed() || st > static_cast<std::uint8_t>(
                                 queue::JobState::rejected)) {
        return corrupt("queue job state");
      }
      j.state = static_cast<queue::JobState>(st);
      j.start_time = r.iv();
      j.end_time = r.iv();
      if (!read_resources(r, nverts, j.resources)) {
        return corrupt("queue job resources");
      }
      if (version < 3) (void)r.f64();  // wall-clock match seconds: dropped
      j.wait.resources = r.iv();
      j.wait.reservation = r.iv();
      j.wait.held = r.iv();
      j.wait.dependency = r.iv();
      j.wait_since = r.iv();
      const std::uint8_t wc = r.u8();
      if (r.failed() || wc > static_cast<std::uint8_t>(
                                 queue::WaitCause::dependency)) {
        return corrupt("queue job wait cause");
      }
      j.wait_cause = static_cast<queue::WaitCause>(wc);
      if (!read_args(r, j.last_blocked)) return corrupt("queue job blocked");
      j.last_blocked_time = r.iv();
      if (r.failed()) return corrupt("queue job");
      q.order_.push_back(j.id);
      q.jobs_.emplace(j.id, std::move(j));
    }
    const std::uint64_t npending = r.uv();
    if (r.failed() || npending > nqjobs) return corrupt("pending");
    for (std::uint64_t i = 0; i < npending; ++i) {
      const queue::JobId id = r.iv();
      if (r.failed() || !q.jobs_.contains(id)) return corrupt("pending id");
      q.pending_.push_back(id);
    }
    queue::QueueStats& qs = q.stats_;
    qs.submitted = r.uv();
    qs.started_immediately = r.uv();
    qs.reserved = r.uv();
    qs.completed = r.uv();
    qs.rejected = r.uv();
    if (version < 3) {
      (void)r.f64();  // total_match_seconds
    } else {
      qs.schedule_passes = r.uv();
    }
    qs.events_fired = r.uv();
    qs.heap_pops = r.uv();
    qs.match_calls = r.uv();
    qs.match_skipped = r.uv();
    qs.cache_invalidations = r.uv();
    if (version == 1) {
      // Version 1 carried four counters of the removed parallel match
      // pipeline here; read and drop them.
      for (int i = 0; i < 4; ++i) (void)r.uv();
    }
    qs.reservations_made = r.uv();
    qs.reservations_dropped = r.uv();
    // A warm start reports only what runs after the load.
    q.obs_source_.rebaseline();
    // Event heap, rebuilt canonically from job state: a reserved job's
    // future start, a running job's completion. The writer's heap may
    // additionally hold stale (lazily deleted) entries; those only ever
    // affected its heap_pops tally, never an outcome. The live
    // reservation count and the dependency flag are derived from the same
    // job states, so the format carries neither.
    for (const auto& [id, j] : q.jobs_) {
      if (!j.depends_on.empty()) q.has_dependencies_ = true;
      if (j.state == queue::JobState::reserved) {
        ++q.reservations_live_;
        q.push_event(j.start_time, queue::JobQueue::kEventStart, id);
      } else if (j.state == queue::JobState::running) {
        q.push_event(j.end_time, queue::JobQueue::kEventCompletion, id);
      }
    }
    const std::uint64_t nevents = r.uv();
    if (r.failed() || nevents > bytes.size()) return corrupt("eventlog");
    q.log_.set_enabled(true);
    for (std::uint64_t i = 0; i < nevents; ++i) {
      const std::int64_t time = r.iv();
      const std::int64_t job = r.iv();
      std::string kind = r.str();
      std::vector<std::pair<std::string, std::string>> args;
      if (!read_args(r, args)) return corrupt("eventlog entry");
      q.log_.record(time, job, std::move(kind), std::move(args));
    }
    q.log_.set_enabled(log_enabled);
  }

  if (r.failed()) return corrupt("truncated");
  if (!r.at_end()) return corrupt("trailing bytes");
  return eng;
}

std::string save_engine(const graph::ResourceGraph& g,
                        const traverser::Traverser& t,
                        const queue::JobQueue* q) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string bytes = EngineSnapshot::save(g, t, q);
  if (obs::enabled()) {
    auto& m = obs::monitor();
    m.snap_saves.inc();
    m.snap_bytes.inc(bytes.size());
    const std::lock_guard lock(m.snap_mu);
    m.snap_save_us.add(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  return bytes;
}

util::Expected<std::unique_ptr<RestoredEngine>> load_engine(
    std::string_view bytes) {
  const auto t0 = std::chrono::steady_clock::now();
  auto eng = EngineSnapshot::load(bytes);
  if (obs::enabled()) {
    auto& m = obs::monitor();
    m.snap_loads.inc();
    const std::lock_guard lock(m.snap_mu);
    m.snap_load_us.add(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  return eng;
}

}  // namespace fluxion::snapshot
