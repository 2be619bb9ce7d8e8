// resource-query: the command-line utility the paper's evaluation drives
// (§6.1). It reads a GRUG recipe, populates the resource graph store, and
// answers match commands against jobspec files — a single-process stand-in
// for the resource manager in Figure 1c.
//
// Usage:
//   resource-query --grug SYSTEM.grug [--policy NAME] [--format simple|rlite|jgf]
//
// Commands (stdin or a script piped in):
//   match allocate JOBSPEC.yaml
//   match allocate_orelse_reserve JOBSPEC.yaml
//   match satisfiability JOBSPEC.yaml
//   cancel JOBID
//   find JOBID
//   info
//   stats
//   jgf
//   help
//   quit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/resource_query.hpp"
#include "dynamic/dynamic.hpp"
#include "grug/grug.hpp"
#include "hier/federation.hpp"
#include "obs/metrics.hpp"
#include "queue/job_queue.hpp"
#include "sim/workload.hpp"
#include "snapshot/replica.hpp"
#include "snapshot/snapshot.hpp"
#include "util/strings.hpp"
#include "graph/graph_stats.hpp"
#include "writers/jgf.hpp"
#include "writers/pretty.hpp"
#include "writers/rlite.hpp"

namespace {

using namespace fluxion;

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

void print_help() {
  std::printf(
      "commands:\n"
      "  match allocate JOBSPEC.yaml\n"
      "  match allocate_orelse_reserve JOBSPEC.yaml\n"
      "  match satisfiability JOBSPEC.yaml\n"
      "  cancel JOBID\n"
      "  grow JOBID JOBSPEC.yaml   — add resources to a live job\n"
      "  grow PATH RECIPE.grug     — attach a new subtree under PATH\n"
      "  shrink JOBID PATH         — release a job's claims under PATH\n"
      "  shrink PATH               — evict jobs on PATH and detach it\n"
      "  set-status PATH up|down|drained — flip a subtree's status\n"
      "                              (down evicts; drained only stops new\n"
      "                              matches)\n"
      "  detach PATH               — remove an idle subtree (elasticity)\n"
      "  tree   — containment tree with status markers\n"
      "  run-trace FILE CORES      — run a '<nodes> <duration>' trace with\n"
      "                              conservative backfilling, print metrics\n"
      "  find JOBID\n"
      "  explain JOBID — why JOBID's match came out the way it did:\n"
      "                              outcome, dominant blocking resource\n"
      "                              type, per-reason rejection tallies and\n"
      "                              the earliest-feasible-time hint\n"
      "  traversal-mode [scored|first-match] — show or set how matches\n"
      "                              walk the graph (first-match stops at\n"
      "                              the first feasible slot, no scoring)\n"
      "  info   — graph summary\n"
      "  stats [-v]  — match/planner counters (-v adds histograms)\n"
      "  clear-stats — zero every counter and histogram\n"
      "  jgf    — dump the resource graph as JSON Graph Format\n"
      "  save FILE — write a binary engine snapshot (graph + claims)\n"
      "  load FILE — replace the engine with a restored snapshot\n"
      "  replica open|refresh FILE — serve read-only queries from a\n"
      "                              snapshot alongside this writer\n"
      "  replica status            — replica epoch vs. writer epoch\n"
      "  replica satisfiability JOBSPEC.yaml\n"
      "  replica earliest JOBSPEC.yaml [T] — earliest feasible start\n"
      "  quit\n");
}

struct Cli {
  std::unique_ptr<core::ResourceQuery> rq;
  std::string format = "simple";
  /// Dynamic-resource layer; no queue here, so evictions kill jobs.
  std::unique_ptr<dynamic::DynamicResources> dyn;
  /// Federated mode (--hier): matches route through the federation and
  /// `explain` names the member that produced the verdict. rq/dyn stay
  /// null; only the federation command subset is available.
  std::unique_ptr<hier::Federation> fed;
  long long next_fed_attempt = 1;
  /// One record per match command, keyed by the job id the match ran
  /// under (failed matches consume an id for attribution purposes only).
  /// Introspection is always on in the interactive tool, so `explain`
  /// never comes up empty-handed.
  struct Attempt {
    std::string op;
    bool ok = false;
    std::string code;
    std::vector<std::pair<std::string, std::string>> args;
  };
  std::unordered_map<long long, Attempt> attempts;
  long long last_attempt_id = -1;
  /// Read-only engine clone serving queries next to the writer (`replica`
  /// commands); rebuilt from snapshot bytes, never mutated.
  std::unique_ptr<snapshot::Replica> replica;

  void emit_match(const core::MatchResult& r) const {
    if (format == "rlite") {
      std::printf("%s\n", writers::match_rlite_string(rq->graph(), r).c_str());
    } else if (format == "jgf") {
      std::printf("%s\n", writers::match_to_jgf(rq->graph(), r).pretty().c_str());
    } else if (format == "pretty") {
      std::printf("%s", writers::match_to_pretty(rq->graph(), r).c_str());
    } else {
      std::printf("%s", rq->render(r).c_str());
    }
  }

  int handle_match(const std::vector<std::string>& args) {
    if (args.size() != 3) {
      std::printf("error: match needs an op and a jobspec path\n");
      return 0;
    }
    bool ok = false;
    const std::string text = read_file(args[2], ok);
    if (!ok) {
      std::printf("error: cannot read '%s'\n", args[2].c_str());
      return 0;
    }
    auto js = jobspec::Jobspec::from_yaml(text);
    if (!js) {
      std::printf("error: %s\n", js.error().message.c_str());
      return 0;
    }
    util::Expected<core::MatchResult> r =
        util::Error{util::Errc::invalid_argument, "unknown match op"};
    const long long attempt_id = static_cast<long long>(rq->peek_job_id());
    bool dispatched = true;
    if (args[1] == "allocate") {
      r = rq->match_allocate(*js);
    } else if (args[1] == "allocate_with_satisfiability") {
      r = rq->traverser().match(
          *js, traverser::MatchOp::allocate_with_satisfiability, 0,
          rq->next_job_id());
    } else if (args[1] == "allocate_orelse_reserve") {
      r = rq->match_allocate_orelse_reserve(*js);
    } else if (args[1] == "satisfiability") {
      r = rq->satisfiability(*js);
    } else {
      dispatched = false;
    }
    if (dispatched) {
      Attempt a;
      a.op = args[1];
      a.ok = static_cast<bool>(r);
      a.code = r ? "ok" : util::errc_name(r.error().code);
      a.args = rq->traverser().explain_args();
      attempts[attempt_id] = std::move(a);
      last_attempt_id = attempt_id;
    }
    if (args[1] == "satisfiability" && r) {
      std::printf("satisfiable\n");
      return 0;
    }
    if (!r) {
      std::printf("MATCH FAILED (%s): %s\n",
                  util::errc_name(r.error().code), r.error().message.c_str());
      return 0;
    }
    emit_match(*r);
    return 0;
  }

  int handle_explain(const std::string& arg) {
    long long id = last_attempt_id;
    if (arg != "last") {
      auto parsed = util::parse_i64(arg);
      if (!parsed) {
        std::printf("error: explain takes a job id or 'last'\n");
        return 0;
      }
      id = *parsed;
    }
    auto it = attempts.find(id);
    if (it == attempts.end()) {
      std::printf("no match attempt recorded for job %lld\n", id);
      return 0;
    }
    const Attempt& a = it->second;
    std::printf("job %lld: match %s -> %s\n", id, a.op.c_str(),
                a.code.c_str());
    auto unquote = [](const std::string& v) {
      return v.size() >= 2 && v.front() == '"' && v.back() == '"'
                 ? v.substr(1, v.size() - 2)
                 : v;
    };
    std::string tallies;
    for (const auto& [k, v] : a.args) {
      if (k == "member") {
        std::printf("  member: %s\n", unquote(v).c_str());
      } else if (k == "dominant") {
        std::printf("  dominant blocker: %s\n", unquote(v).c_str());
      } else if (k == "hint") {
        std::printf("  earliest feasible: t=%s\n", v.c_str());
      } else {
        if (!tallies.empty()) tallies += ", ";
        tallies += k + " " + v;
      }
    }
    if (!tallies.empty()) std::printf("  rejections: %s\n", tallies.c_str());
    if (a.args.empty()) {
      std::printf("  (no rejections recorded%s)\n",
                  a.ok ? "; match succeeded" : "");
    }
    return 0;
  }

  /// Federated-mode match: route through the federation, escalating to
  /// the root when no leaf fits; the attempt record carries the member
  /// attribution so `explain` can name where the verdict came from.
  int handle_fed_match(const std::vector<std::string>& args) {
    if (args.size() != 3) {
      std::printf("error: match needs an op and a jobspec path\n");
      return 0;
    }
    bool ok = false;
    const std::string text = read_file(args[2], ok);
    if (!ok) {
      std::printf("error: cannot read '%s'\n", args[2].c_str());
      return 0;
    }
    auto js = jobspec::Jobspec::from_yaml(text);
    if (!js) {
      std::printf("error: %s\n", js.error().message.c_str());
      return 0;
    }
    if (args[1] == "satisfiability") {
      // Whole-federation verdict: which members could ever run it.
      std::string sat;
      for (std::size_t i = 0; i < fed->member_count(); ++i) {
        if (fed->member(i).instance->engine().satisfiability(*js)) {
          if (!sat.empty()) sat += ", ";
          sat += fed->member(i).name;
        }
      }
      if (sat.empty()) {
        std::printf("unsatisfiable on every member\n");
      } else {
        std::printf("satisfiable on: %s\n", sat.c_str());
      }
      return 0;
    }
    if (args[1] != "allocate") {
      std::printf("error: federated mode supports match allocate and "
                  "match satisfiability\n");
      return 0;
    }
    const long long attempt_id = next_fed_attempt++;
    auto r = fed->match_allocate(*js);
    Attempt a;
    a.op = "allocate";
    a.ok = static_cast<bool>(r);
    a.code = r ? "ok" : util::errc_name(r.error().code);
    a.args = fed->last_args();
    attempts[attempt_id] = std::move(a);
    last_attempt_id = attempt_id;
    if (!r) {
      std::printf("MATCH FAILED (%s) on member %s: %s\n",
                  util::errc_name(r.error().code), fed->last_member().c_str(),
                  r.error().message.c_str());
      return 0;
    }
    // Render against the graph of the member that placed the job.
    for (std::size_t i = 0; i < fed->member_count(); ++i) {
      if (fed->member(i).name != fed->last_member()) continue;
      const auto& g = fed->member(i).instance->engine().graph();
      std::printf("member %s:\n", fed->last_member().c_str());
      if (format == "rlite") {
        std::printf("%s\n", writers::match_rlite_string(g, *r).c_str());
      } else if (format == "jgf") {
        std::printf("%s\n", writers::match_to_jgf(g, *r).pretty().c_str());
      } else {
        std::printf("%s", writers::match_to_pretty(g, *r).c_str());
      }
      break;
    }
    return 0;
  }

  int handle_replica(const std::vector<std::string>& args) {
    const std::string sub = args.size() > 1 ? args[1] : "";
    if ((sub == "open" || sub == "refresh") && args.size() == 3) {
      bool ok = false;
      const std::string bytes = read_file(args[2], ok);
      if (!ok) {
        std::printf("error: cannot read '%s'\n", args[2].c_str());
        return 0;
      }
      if (sub == "open") {
        auto rep = snapshot::Replica::open(bytes);
        if (!rep) {
          std::printf("REPLICA OPEN FAILED: %s\n",
                      rep.error().message.c_str());
          return 0;
        }
        replica = std::move(*rep);
      } else {
        if (!replica) {
          std::printf("error: no replica open (use 'replica open FILE')\n");
          return 0;
        }
        auto st = replica->refresh(bytes);
        if (!st) {
          std::printf("REPLICA REFRESH FAILED (still serving epoch %llu): "
                      "%s\n",
                      static_cast<unsigned long long>(replica->epoch()),
                      st.error().message.c_str());
          return 0;
        }
      }
      std::printf("replica serving epoch %llu (policy %s, %zu vertices)\n",
                  static_cast<unsigned long long>(replica->epoch()),
                  replica->policy_name().c_str(),
                  replica->graph().live_vertex_count());
      return 0;
    }
    if (!replica) {
      std::printf("error: no replica open (use 'replica open FILE')\n");
      return 0;
    }
    if (sub == "status" && args.size() == 2) {
      const std::uint64_t writer = rq->traverser().mutation_epoch();
      const bool stale = replica->stale_against(writer);
      std::printf("replica epoch %llu, writer epoch %llu -> %s | "
                  "%llu queries served\n",
                  static_cast<unsigned long long>(replica->epoch()),
                  static_cast<unsigned long long>(writer),
                  stale ? "STALE (refresh to catch up)" : "current",
                  static_cast<unsigned long long>(replica->queries()));
      return 0;
    }
    if ((sub == "satisfiability" || sub == "earliest") &&
        (args.size() == 3 || (sub == "earliest" && args.size() == 4))) {
      bool ok = false;
      const std::string text = read_file(args[2], ok);
      if (!ok) {
        std::printf("error: cannot read '%s'\n", args[2].c_str());
        return 0;
      }
      auto js = jobspec::Jobspec::from_yaml(text);
      if (!js) {
        std::printf("error: %s\n", js.error().message.c_str());
        return 0;
      }
      if (sub == "satisfiability") {
        std::printf("%s (at replica epoch %llu)\n",
                    replica->satisfiable(*js) ? "satisfiable"
                                              : "unsatisfiable",
                    static_cast<unsigned long long>(replica->epoch()));
        return 0;
      }
      util::TimePoint now = 0;
      if (args.size() == 4) {
        auto parsed = util::parse_i64(args[3]);
        if (!parsed || *parsed < 0) {
          std::printf("error: earliest takes a non-negative time\n");
          return 0;
        }
        now = *parsed;
      }
      auto t0 = replica->earliest_start(*js, now);
      if (!t0) {
        std::printf("EARLIEST FAILED (%s): %s\n",
                    util::errc_name(t0.error().code),
                    t0.error().message.c_str());
      } else {
        std::printf("earliest feasible start: t=%lld (at replica epoch "
                    "%llu)\n",
                    static_cast<long long>(*t0),
                    static_cast<unsigned long long>(replica->epoch()));
      }
      return 0;
    }
    std::printf("error: replica takes open|refresh FILE, status, "
                "satisfiability JOBSPEC, or earliest JOBSPEC [T]\n");
    return 0;
  }

  /// The federated-mode command subset. Commands that mutate or inspect
  /// one flat graph (grow, shrink, cancel, jgf, ...) are not routed.
  int run_fed_command(const std::vector<std::string>& args) {
    const std::string& cmd = args[0];
    if (cmd == "quit" || cmd == "exit") return 1;
    if (cmd == "help") {
      std::printf(
          "federated-mode commands:\n"
          "  match allocate JOBSPEC.yaml       — route + match; failures\n"
          "                                      name the member\n"
          "  match satisfiability JOBSPEC.yaml — per-member verdicts\n"
          "  explain JOBID|last — member-attributed match outcome\n"
          "  info   — federation topology and routing counters\n"
          "  stats  — routing/steal counters and member queue stats\n"
          "  quit\n");
    } else if (cmd == "match") {
      return handle_fed_match(args);
    } else if (cmd == "explain" && args.size() == 2) {
      return handle_explain(args[1]);
    } else if (cmd == "info") {
      const auto& cfg = fed->config();
      std::printf("federation: %zu members (%zu leaves), route=%s, "
                  "levels=%zu\n",
                  fed->member_count(), fed->leaf_count(),
                  hier::route_policy_name(cfg.route), cfg.levels);
      for (std::size_t i = 0; i < fed->member_count(); ++i) {
        const auto& m = fed->member(i);
        std::printf("  %-8s %s, %lld nodes, %zu vertices, depth %zu\n",
                    m.name.c_str(), m.is_root ? "root" : "leaf",
                    static_cast<long long>(m.capacity_nodes),
                    m.instance->engine().graph().live_vertex_count(),
                    m.instance->depth());
      }
    } else if (cmd == "stats") {
      const auto& s = fed->stats();
      std::printf("routed: %llu, escalated: %llu, stolen: %llu "
                  "(%llu steal passes)\n",
                  static_cast<unsigned long long>(s.routed),
                  static_cast<unsigned long long>(s.escalated),
                  static_cast<unsigned long long>(s.stolen),
                  static_cast<unsigned long long>(s.steal_passes));
      for (std::size_t i = 0; i < fed->member_count(); ++i) {
        const auto& m = fed->member(i);
        const auto& ts = m.instance->engine().traverser().stats();
        std::printf("  %-8s visits: %llu, match attempts: %llu, "
                    "jobs: %zu\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(ts.visits),
                    static_cast<unsigned long long>(ts.match_attempts),
                    m.instance->engine().traverser().job_count());
      }
    } else {
      std::printf("error: unknown federated-mode command '%s' "
                  "(try 'help')\n", cmd.c_str());
    }
    return 0;
  }

  int run_command(const std::string& line) {
    std::vector<std::string> args;
    for (auto tok : util::split(line, ' ')) {
      if (!util::trim(tok).empty()) args.emplace_back(util::trim(tok));
    }
    if (args.empty()) return 0;
    if (fed != nullptr) return run_fed_command(args);
    const std::string& cmd = args[0];
    if (cmd == "quit" || cmd == "exit") return 1;
    if (cmd == "help") {
      print_help();
    } else if (cmd == "match") {
      return handle_match(args);
    } else if (cmd == "cancel" && args.size() == 2) {
      auto id = util::parse_i64(args[1]);
      if (!id) {
        std::printf("error: bad job id\n");
        return 0;
      }
      auto st = rq->cancel(*id);
      std::printf("%s\n", st ? "canceled" : st.error().message.c_str());
    } else if (cmd == "grow" && args.size() == 3 && !args[1].empty() &&
               args[1].front() == '/') {
      // Graph elasticity: grow PATH RECIPE.grug.
      auto parent = rq->graph().find_by_path(args[1]);
      bool ok = false;
      const std::string text = read_file(args[2], ok);
      if (!parent || !ok) {
        std::printf("error: grow needs a known path and a readable recipe\n");
        return 0;
      }
      auto root = dyn->grow(*parent, text);
      if (!root) {
        std::printf("GROW FAILED (%s): %s\n", util::errc_name(root.error().code),
                    root.error().message.c_str());
      } else {
        std::printf("grew %s under %s (%zu vertices live)\n",
                    rq->graph().vertex(*root).path.c_str(), args[1].c_str(),
                    rq->graph().live_vertex_count());
      }
    } else if (cmd == "grow" && args.size() == 3) {
      auto id = util::parse_i64(args[1]);
      bool ok = false;
      const std::string text = read_file(args[2], ok);
      if (!id || !ok) {
        std::printf("error: grow needs a job id and a readable jobspec\n");
        return 0;
      }
      auto js = jobspec::Jobspec::from_yaml(text);
      if (!js) {
        std::printf("error: %s\n", js.error().message.c_str());
        return 0;
      }
      auto r = rq->traverser().grow(*id, *js, 0);
      if (!r) {
        std::printf("GROW FAILED (%s): %s\n", util::errc_name(r.error().code),
                    r.error().message.c_str());
      } else {
        emit_match(*r);
      }
    } else if (cmd == "shrink" && args.size() == 2 && !args[1].empty() &&
               args[1].front() == '/') {
      // Graph elasticity: shrink PATH (evicts intersecting jobs first).
      auto v = rq->graph().find_by_path(args[1]);
      if (!v) {
        std::printf("error: unknown path '%s'\n", args[1].c_str());
        return 0;
      }
      auto r = dyn->shrink(*v);
      if (!r) {
        std::printf("SHRINK FAILED (%s): %s\n",
                    util::errc_name(r.error().code), r.error().message.c_str());
      } else {
        std::printf("shrunk %s: removed %zu vertices, evicted %zu jobs\n",
                    args[1].c_str(), r->removed_vertices, r->evicted.size());
      }
    } else if (cmd == "set-status" && args.size() == 3) {
      auto v = rq->graph().find_by_path(args[1]);
      const auto status = graph::parse_status(args[2]);
      if (!v || !status) {
        std::printf(
            "error: set-status needs a known path and up|down|drained\n");
        return 0;
      }
      auto change = dyn->set_status(*v, *status);
      if (!change) {
        std::printf("SET-STATUS FAILED (%s): %s\n",
                    util::errc_name(change.error().code),
                    change.error().message.c_str());
      } else {
        std::printf("%s: %s -> %s, evicted %zu jobs\n", args[1].c_str(),
                    graph::status_name(change->previous),
                    graph::status_name(*status), change->evicted.size());
      }
    } else if (cmd == "shrink" && args.size() == 3) {
      auto id = util::parse_i64(args[1]);
      auto v = rq->graph().find_by_path(args[2]);
      if (!id || !v) {
        std::printf("error: shrink needs a job id and a known path\n");
        return 0;
      }
      auto st = rq->traverser().shrink(*id, *v);
      std::printf("%s\n", st ? "shrunk" : st.error().message.c_str());
    } else if (cmd == "run-trace" && args.size() == 3) {
      bool ok = false;
      const std::string text = read_file(args[1], ok);
      const auto cores = util::parse_i64(args[2]);
      if (!ok || !cores || *cores < 1) {
        std::printf("error: run-trace needs a readable file and a core "
                    "count\n");
        return 0;
      }
      auto trace = sim::parse_trace(text);
      if (!trace) {
        std::printf("error: %s\n", trace.error().message.c_str());
        return 0;
      }
      queue::JobQueue q(rq->traverser(),
                        queue::QueuePolicy::conservative_backfill);
      for (const auto& tj : *trace) {
        auto js = sim::trace_jobspec(tj, *cores);
        if (!js) {
          std::printf("error: %s\n", js.error().message.c_str());
          return 0;
        }
        q.submit(*js);
      }
      q.run_to_completion();
      const auto m = q.metrics();
      std::printf("jobs: %zu completed, %llu rejected\n", m.completed,
                  static_cast<unsigned long long>(q.stats().rejected));
      std::printf("makespan: %lld  avg-wait: %.1f  avg-turnaround: %.1f\n",
                  static_cast<long long>(m.makespan), m.avg_wait,
                  m.avg_turnaround);
      std::printf("immediate starts: %llu  reservations: %llu  "
                  "sched-time: %.3fs\n",
                  static_cast<unsigned long long>(
                      q.stats().started_immediately),
                  static_cast<unsigned long long>(q.stats().reserved),
                  q.stats().total_match_seconds);
    } else if (cmd == "detach" && args.size() == 2) {
      auto v = rq->graph().find_by_path(args[1]);
      if (!v) {
        std::printf("error: unknown path '%s'\n", args[1].c_str());
        return 0;
      }
      auto st = rq->graph().detach_subtree(*v);
      std::printf("%s\n", st ? "detached" : st.error().message.c_str());
    } else if (cmd == "explain" && args.size() == 2) {
      return handle_explain(args[1]);
    } else if (cmd == "find" && args.size() == 2) {
      auto id = util::parse_i64(args[1]);
      const core::MatchResult* job =
          id ? rq->traverser().find_job(*id) : nullptr;
      if (job == nullptr) {
        std::printf("no such job\n");
      } else {
        emit_match(*job);
      }
    } else if (cmd == "traversal-mode" && args.size() <= 2) {
      if (args.size() == 2) {
        if (args[1] == "scored") {
          rq->traverser().set_traversal_mode(traverser::TraversalMode::scored);
        } else if (args[1] == "first-match") {
          rq->traverser().set_traversal_mode(
              traverser::TraversalMode::first_match);
        } else {
          std::printf("error: traversal-mode takes scored|first-match\n");
          return 0;
        }
      }
      std::printf("traversal mode: %s\n",
                  traverser::traversal_mode_name(
                      rq->traverser().traversal_mode()));
    } else if (cmd == "tree") {
      std::printf("%s", writers::graph_to_pretty(rq->graph(),
                                                 rq->root()).c_str());
    } else if (cmd == "info") {
      const auto& g = rq->graph();
      std::printf("vertices: %zu live / %zu total, edges: %zu, jobs: %zu\n",
                  g.live_vertex_count(), g.vertex_count(), g.edge_count(),
                  rq->traverser().job_count());
      std::printf("status: up=%zu down=%zu drained=%zu\n",
                  g.status_count(graph::ResourceStatus::up),
                  g.status_count(graph::ResourceStatus::down),
                  g.status_count(graph::ResourceStatus::drained));
      std::printf("%s",
                  graph::render_stats(
                      graph::compute_stats(g, rq->root()))
                      .c_str());
    } else if (cmd == "stats") {
      const auto& s = rq->traverser().stats();
      std::printf("visits: %llu, pruned: %llu, match attempts: %llu\n",
                  static_cast<unsigned long long>(s.visits),
                  static_cast<unsigned long long>(s.pruned),
                  static_cast<unsigned long long>(s.match_attempts));
      const bool verbose = args.size() > 1 && args[1] == "-v";
      std::printf("%s", obs::monitor().render(verbose).c_str());
    } else if (cmd == "clear-stats") {
      rq->clear_stats();
      std::printf("stats cleared\n");
    } else if (cmd == "jgf") {
      std::printf("%s\n", writers::graph_to_jgf(rq->graph()).pretty().c_str());
    } else if (cmd == "save" && args.size() == 2) {
      const std::string bytes =
          snapshot::save_engine(rq->graph(), rq->traverser(), nullptr);
      std::ofstream out(args[1], std::ios::binary);
      if (!out ||
          !out.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()))) {
        std::printf("error: cannot write '%s'\n", args[1].c_str());
        return 0;
      }
      std::printf("saved %zu bytes (epoch %llu, %zu jobs)\n", bytes.size(),
                  static_cast<unsigned long long>(
                      rq->traverser().mutation_epoch()),
                  rq->traverser().job_count());
    } else if (cmd == "load" && args.size() == 2) {
      bool ok = false;
      const std::string bytes = read_file(args[1], ok);
      if (!ok) {
        std::printf("error: cannot read '%s'\n", args[1].c_str());
        return 0;
      }
      auto eng = snapshot::load_engine(bytes);
      if (!eng) {
        std::printf("LOAD FAILED: %s\n", eng.error().message.c_str());
        return 0;
      }
      if ((*eng)->queue) {
        std::printf("note: snapshot carried a job queue; resource-query "
                    "serves the engine beneath it\n");
      }
      rq = core::ResourceQuery::adopt(
          std::move((*eng)->graph), std::move((*eng)->policy),
          std::move((*eng)->traverser), (*eng)->root, (*eng)->next_job_id);
      rq->traverser().set_introspection(true);
      dyn = std::make_unique<dynamic::DynamicResources>(rq->graph(),
                                                        rq->traverser());
      // Attempt records describe the replaced engine's jobs.
      attempts.clear();
      last_attempt_id = -1;
      std::printf("loaded: %zu vertices, policy=%s, %zu jobs, epoch %llu\n",
                  rq->graph().live_vertex_count(),
                  (*eng)->policy_name.c_str(), rq->traverser().job_count(),
                  static_cast<unsigned long long>(
                      rq->traverser().mutation_epoch()));
    } else if (cmd == "replica") {
      return handle_replica(args);
    } else {
      std::printf("error: unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    return 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string grug_path;
  std::string jgf_path;
  std::string policy = "low-id";
  std::string format = "simple";
  std::int64_t hier = 0;
  std::string route_name = "round-robin";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--grug") {
      if (const char* v = next()) grug_path = v;
    } else if (arg == "--jgf") {
      if (const char* v = next()) jgf_path = v;
    } else if (arg == "--policy") {
      if (const char* v = next()) policy = v;
    } else if (arg == "--format") {
      if (const char* v = next()) format = v;
    } else if (arg == "--hier") {
      if (const char* v = next()) hier = std::atoll(v);
    } else if (arg == "--route") {
      if (const char* v = next()) route_name = v;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: resource-query (--grug FILE | --jgf FILE) "
                  "[--policy NAME] [--format simple|pretty|rlite|jgf]\n"
                  "                      [--hier K] [--route POLICY]\n");
      print_help();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }
  if (grug_path.empty() == jgf_path.empty()) {
    std::fprintf(stderr,
                 "resource-query: exactly one of --grug or --jgf is "
                 "required\n");
    return 2;
  }
  if (format != "simple" && format != "rlite" && format != "jgf" &&
      format != "pretty") {
    std::fprintf(stderr, "resource-query: unknown format '%s'\n",
                 format.c_str());
    return 2;
  }
  const std::string& source = grug_path.empty() ? jgf_path : grug_path;
  bool ok = false;
  const std::string text = read_file(source, ok);
  if (!ok) {
    std::fprintf(stderr, "resource-query: cannot read %s\n", source.c_str());
    return 2;
  }
  core::Options opt;
  opt.policy = policy;
  if (hier > 0) {
    // Federated mode: partition into child instances; matches route
    // through the federation and rejections name the member.
    if (grug_path.empty()) {
      std::fprintf(stderr, "resource-query: --hier requires --grug\n");
      return 2;
    }
    const auto route = hier::parse_route_policy(route_name);
    if (!route) {
      std::fprintf(stderr, "resource-query: unknown route policy '%s'\n",
                   route_name.c_str());
      return 2;
    }
    auto recipe = grug::parse(text);
    if (!recipe) {
      std::fprintf(stderr, "resource-query: %s\n",
                   recipe.error().message.c_str());
      return 2;
    }
    hier::FederationConfig fcfg;
    fcfg.children = static_cast<std::size_t>(hier);
    fcfg.route = *route;
    auto fed = hier::Federation::create(*recipe, fcfg, opt);
    if (!fed) {
      std::fprintf(stderr, "resource-query: %s\n",
                   fed.error().message.c_str());
      return 2;
    }
    obs::set_enabled(true);
    for (std::size_t i = 0; i < (*fed)->member_count(); ++i) {
      (*fed)->member(i).instance->engine().traverser().set_introspection(
          true);
    }
    Cli cli;
    cli.format = format;
    cli.fed = std::move(*fed);
    std::printf("resource-query: federation of %zu members (%zu leaves), "
                "route=%s (type 'help')\n",
                cli.fed->member_count(), cli.fed->leaf_count(),
                hier::route_policy_name(cli.fed->config().route));
    std::string fed_line;
    while (std::getline(std::cin, fed_line)) {
      if (cli.run_command(fed_line) != 0) break;
    }
    return 0;
  }
  auto rq = grug_path.empty()
                ? core::ResourceQuery::create_from_jgf(
                      text, opt, {"node", "core"}, {"cluster"})
                : core::ResourceQuery::create_from_text(text, opt);
  if (!rq) {
    std::fprintf(stderr, "resource-query: %s\n", rq.error().message.c_str());
    return 2;
  }
  // The interactive tool always collects counters: the branch per
  // increment is noise next to terminal I/O, and `stats` should never be
  // silently empty.
  obs::set_enabled(true);
  // Same reasoning for match-failure attribution: `explain` should always
  // have an answer, and the per-rejection branch is noise here.
  (*rq)->traverser().set_introspection(true);
  Cli cli;
  cli.rq = std::move(*rq);
  cli.format = format;
  cli.dyn = std::make_unique<dynamic::DynamicResources>(
      cli.rq->graph(), cli.rq->traverser());
  std::printf("resource-query: %zu vertices, policy=%s (type 'help')\n",
              cli.rq->graph().live_vertex_count(), policy.c_str());
  std::string line;
  while (std::getline(std::cin, line)) {
    if (cli.run_command(line) != 0) break;
  }
  return 0;
}
