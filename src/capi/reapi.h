/* REAPI: a C ABI for embedding Fluxion in foreign runtimes.
 *
 * flux-sched exposes its matcher through a resource API so schedulers
 * written in other languages (the Fluence/KubeFlux Kubernetes plugin,
 * paper §5.3) can drive it. This is the equivalent surface for this
 * library: create a context from GRUG text, match YAML jobspecs, inspect
 * and cancel, all over plain C types.
 *
 * Thread-safety: a context must be driven from one thread at a time.
 * Strings returned through out-parameters are owned by the library and
 * must be released with reapi_free_string.
 */
#ifndef FLUXION_CAPI_REAPI_H
#define FLUXION_CAPI_REAPI_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct reapi_ctx reapi_ctx_t;

typedef enum {
  REAPI_OK = 0,
  REAPI_EINVAL = 1,      /* malformed input */
  REAPI_ENOENT = 2,      /* unknown id */
  REAPI_EBUSY = 3,       /* resources busy at the requested time */
  REAPI_ENOTSUP = 4,     /* request can never be satisfied */
  REAPI_EINTERNAL = 5,   /* invariant violation (bug) */
} reapi_status_t;

/* Match operations (paper Figure 1c). */
typedef enum {
  REAPI_MATCH_ALLOCATE = 0,
  REAPI_MATCH_ALLOCATE_ORELSE_RESERVE = 1,
  REAPI_MATCH_SATISFIABILITY = 2,
} reapi_match_op_t;

/* How matches walk the resource graph. SCORED (the default) collects
 * every feasible candidate and ranks them with the context's match
 * policy. FIRST_MATCH stops at the first feasible slot and never
 * invokes the policy scorer — much cheaper, placements are
 * feasibility-equivalent but not policy-optimal. */
typedef enum {
  REAPI_TRAVERSAL_SCORED = 0,
  REAPI_TRAVERSAL_FIRST_MATCH = 1,
} reapi_traversal_mode_t;

/* Create a context from a GRUG recipe. policy: "low-id", "high-id",
 * "locality" or "variation-aware". Returns NULL on failure and, when
 * error_out is non-NULL, a malloc'd message the caller must free with
 * reapi_free_string. */
reapi_ctx_t* reapi_create(const char* grug_text, const char* policy,
                          char** error_out);

void reapi_destroy(reapi_ctx_t* ctx);

/* Match a YAML jobspec at time `now`. On success fills jobid_out,
 * at_out and reserved_out, and (if rlite_out is non-NULL) the R-lite
 * JSON of the selected resource set. */
reapi_status_t reapi_match(reapi_ctx_t* ctx, reapi_match_op_t op,
                           const char* jobspec_yaml, int64_t now,
                           uint64_t* jobid_out, int64_t* at_out,
                           int* reserved_out, char** rlite_out);

/* Set the traversal mode for subsequent reapi_match calls. Takes effect
 * immediately; jobs already placed are unaffected. */
reapi_status_t reapi_set_traversal_mode(reapi_ctx_t* ctx,
                                        reapi_traversal_mode_t mode);

/* The context's current traversal mode. */
reapi_traversal_mode_t reapi_traversal_mode(const reapi_ctx_t* ctx);

/* Release a job's resources. */
reapi_status_t reapi_cancel(reapi_ctx_t* ctx, uint64_t jobid);

/* Look up a live job; fills at_out/duration_out/reserved_out. */
reapi_status_t reapi_info(reapi_ctx_t* ctx, uint64_t jobid, int64_t* at_out,
                          int64_t* duration_out, int* reserved_out);

/* Live (allocated or reserved) job count. */
uint64_t reapi_job_count(const reapi_ctx_t* ctx);

/* --- Dynamic resources: runtime status and elastic grow/shrink.
 * A context schedules without a job queue, so evicting a subtree cancels
 * the intersecting jobs outright (kill semantics); embedders that requeue
 * should resubmit from their own queue. All operations are transactional:
 * on failure the resource graph is unchanged. */

/* Set the status ("up", "down" or "drained") of the vertex at the
 * containment path `path` and its whole subtree. Transitioning to "down"
 * first cancels every job whose allocation intersects the subtree and
 * removes the subtree's capacity from the pruning filters; "drained"
 * stops new matches but keeps running jobs. evicted_out (optional)
 * receives the number of jobs cancelled. */
reapi_status_t reapi_set_status(reapi_ctx_t* ctx, const char* path,
                                const char* status, uint64_t* evicted_out);

/* Build a subtree from a GRUG recipe and attach it under the vertex at
 * parent_path. On success fills root_path_out (malloc'd; release with
 * reapi_free_string) with the new subtree root's containment path. */
reapi_status_t reapi_grow(reapi_ctx_t* ctx, const char* parent_path,
                          const char* grug_text, char** root_path_out);

/* Cancel every job touching the subtree at `path`, then detach the
 * subtree. evicted_out (optional) receives the number of jobs
 * cancelled. */
reapi_status_t reapi_shrink(reapi_ctx_t* ctx, const char* path,
                            uint64_t* evicted_out);

/* Deep structural audit of the scheduler state: every per-vertex planner
 * must validate and the pruning filters must agree with a from-scratch
 * recount of the committed claims. Returns REAPI_OK when coherent and
 * REAPI_EINTERNAL on corruption. Expensive; intended for embedders'
 * health checks and crash triage, not per-request use. */
reapi_status_t reapi_audit(const reapi_ctx_t* ctx);

/* Enable (nonzero) or disable the post-mutation audit hook: every match /
 * cancel re-runs the audit before returning and converts a divergence
 * into REAPI_EINTERNAL. Debugging aid; off by default. */
reapi_status_t reapi_set_audit(reapi_ctx_t* ctx, int enabled);

/* Enable (nonzero) or disable match-failure introspection for this
 * context: every match tallies which resource types rejected candidates
 * and why, and reapi_explain_json can attribute failures. Off by
 * default; when enabled the matcher pays one predictable branch per
 * rejected candidate. */
reapi_status_t reapi_set_introspection(reapi_ctx_t* ctx, int enabled);

/* Explain the outcome of the match that ran under `jobid`: a one-level
 * JSON object with "job", "op", "code" and — when introspection was on —
 * "dominant" (the resource type that rejected the most candidates),
 * one "<reason>": count entry per non-zero rejection reason
 * (filter_pruned, status_pruned, busy, exclusivity, requirements,
 * postorder) and "hint" (the planner's earliest-feasible start) when
 * known. json_out is malloc'd; release with reapi_free_string. Returns
 * REAPI_ENOENT when no match ran under that id. */
reapi_status_t reapi_explain_json(reapi_ctx_t* ctx, uint64_t jobid,
                                  char** json_out);

/* Enable (nonzero) or disable the process-wide metrics collection
 * (counters and latency histograms in src/obs). Off by default; the
 * per-increment cost when enabled is a branch and an add. */
reapi_status_t reapi_metrics_set_enabled(int enabled);

/* Serialize the process-wide metrics as a JSON document into json_out
 * (malloc'd; release with reapi_free_string). */
reapi_status_t reapi_metrics_json(char** json_out);

/* Serialize the process-wide metrics in Prometheus text exposition
 * format (counters as fluxion_*_total, histograms as cumulative
 * _bucket/_sum/_count series) into text_out (malloc'd; release with
 * reapi_free_string). */
reapi_status_t reapi_metrics_prometheus(char** text_out);

/* Zero every metrics counter and histogram. */
reapi_status_t reapi_metrics_clear(void);

/* --- Federated hierarchical scheduling (paper §5.6).
 * A federation partitions the machine into `children` child instances
 * (via coarse whole-node grants copied out of the root graph), routes
 * submitted jobspecs asynchronously to per-child queues, optionally
 * rebalances by stealing queued jobs, and escalates jobs no child can
 * satisfy to the root. children <= 1 degenerates to the flat engine.
 * A federation handle must be driven from one thread at a time. */

typedef struct reapi_fed reapi_fed_t;

/* Create a federation from a GRUG recipe. route: "round-robin",
 * "least-loaded" or "locality". match_policy as in reapi_create (NULL =
 * default). steal_threshold <= 0 disables work stealing. On failure
 * returns NULL and fills error_out (malloc'd; release with
 * reapi_free_string) when non-NULL. */
reapi_fed_t* reapi_fed_create(const char* grug_text, int children, int levels,
                              const char* route, const char* match_policy,
                              double steal_threshold, char** error_out);

void reapi_fed_destroy(reapi_fed_t* fed);

/* Submit a YAML jobspec into the router inbox; it is assigned to a
 * member on the next scheduling pass. jobid_out receives the
 * federation-scoped id (stable across steals). */
reapi_status_t reapi_fed_submit(reapi_fed_t* fed, const char* jobspec_yaml,
                                int priority, int64_t* jobid_out);

/* One coordinator pass: drain the inbox (route/escalate), run the steal
 * pass, then one scheduling pass per member. */
reapi_status_t reapi_fed_schedule(reapi_fed_t* fed);

/* Drive the simulated clock until every submitted job is terminal;
 * end_out (optional) receives the final clock value. */
reapi_status_t reapi_fed_run_to_completion(reapi_fed_t* fed,
                                           int64_t* end_out);

/* Look up a routed job: fills state_out with the queue state name
 * ("pending", "running", "completed", ...; static storage, do not free),
 * member_out with the owning member's name (malloc'd; release with
 * reapi_free_string), and start/end times (-1 before placement). Returns
 * REAPI_EBUSY while the job is still in the router inbox. */
reapi_status_t reapi_fed_job_info(reapi_fed_t* fed, int64_t jobid,
                                  const char** state_out, char** member_out,
                                  int64_t* start_out, int64_t* end_out);

/* Routing and member statistics as a one-level JSON document:
 * routed/escalated/stolen/steal_passes counters plus a "members" array
 * of {name, nodes, submitted, completed, rejected, pending}. json_out is
 * malloc'd; release with reapi_free_string. */
reapi_status_t reapi_fed_stats_json(reapi_fed_t* fed, char** json_out);

/* Member-attributed account of a job's scheduling state (which member
 * owns it or that it is unrouted, plus the member queue's blocked-reason
 * rendering). text_out is malloc'd; release with reapi_free_string. */
reapi_status_t reapi_fed_explain(reapi_fed_t* fed, int64_t jobid,
                                 char** text_out);

/* Binary engine snapshot of member i (its graph, committed claims and
 * queue) — the bytes load with reapi_snapshot_load or serve reads via
 * reapi_replica_open. Members snapshot per leaf; there is no
 * whole-federation image (router inbox and steal state are transient).
 * bytes_out is malloc'd (may contain NULs; length in *len_out); release
 * with reapi_free_string. */
reapi_status_t reapi_fed_member_snapshot(reapi_fed_t* fed, int member,
                                         char** bytes_out, uint64_t* len_out);

/* --- Binary engine snapshots and warm read replicas (src/snapshot).
 * A snapshot is a versioned binary image of the whole engine (graph,
 * planner spans, committed claims). Restoring one yields an engine whose
 * observable behaviour is identical to the writer's at save time.
 * Replicas are read-only engine clones rebuilt from snapshot bytes: one
 * writer keeps committing while N replicas (one per thread) absorb
 * satisfiability / earliest-start queries, each stamped with the
 * writer's mutation epoch at save time. */

typedef struct reapi_replica reapi_replica_t;

/* Serialize the context's engine. bytes_out receives a malloc'd buffer
 * (binary, not NUL-terminated; release with reapi_free_string) and
 * len_out its length. */
reapi_status_t reapi_snapshot_save(reapi_ctx_t* ctx, char** bytes_out,
                                   uint64_t* len_out);

/* Rebuild a context from snapshot bytes. Any job-queue state in the
 * snapshot is dropped (a context schedules without a queue). Returns
 * NULL on failure and fills error_out (malloc'd; release with
 * reapi_free_string) when non-NULL. */
reapi_ctx_t* reapi_snapshot_load(const char* bytes, uint64_t len,
                                 char** error_out);

/* The context's monotone mutation epoch: bumped on every successful
 * state-changing operation. Compare against reapi_replica_epoch to
 * decide whether a replica needs a refresh. */
uint64_t reapi_mutation_epoch(const reapi_ctx_t* ctx);

/* Open a read-only replica from snapshot bytes. A replica must be driven
 * from one thread at a time; open one per thread from the same bytes. */
reapi_replica_t* reapi_replica_open(const char* bytes, uint64_t len,
                                    char** error_out);

/* Swap in newer snapshot bytes. On failure the replica keeps serving its
 * current (older) state and the call reports why. */
reapi_status_t reapi_replica_refresh(reapi_replica_t* rep, const char* bytes,
                                     uint64_t len);

/* The writer epoch captured in the snapshot this replica serves. */
uint64_t reapi_replica_epoch(const reapi_replica_t* rep);

/* Nonzero when writer_epoch has moved past the replica's epoch (the
 * replica's answers describe an older committed state). */
int reapi_replica_stale(const reapi_replica_t* rep, uint64_t writer_epoch);

/* Could the jobspec ever run on an idle version of the replica's graph?
 * Fills satisfiable_out with 0/1. */
reapi_status_t reapi_replica_satisfiable(reapi_replica_t* rep,
                                         const char* jobspec_yaml,
                                         int* satisfiable_out);

/* Earliest feasible start at or after `now` against the replica's
 * committed state; agrees exactly with the writer at the same epoch.
 * REAPI_ENOTSUP when the spec can never fit. */
reapi_status_t reapi_replica_earliest_start(reapi_replica_t* rep,
                                            const char* jobspec_yaml,
                                            int64_t now, int64_t* at_out);

void reapi_replica_destroy(reapi_replica_t* rep);

/* Free a string returned through an out-parameter. */
void reapi_free_string(char* s);

#ifdef __cplusplus
}
#endif

#endif /* FLUXION_CAPI_REAPI_H */
