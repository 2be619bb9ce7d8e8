// Per-job structured eventlog: the causal record of one job's trip
// through the scheduler — submit → depend/hold → probe attempts →
// blocked-with-reason → reserve/alloc → start → evict/requeue →
// finish/cancel — stamped with *simulated* time only.
//
// Determinism contract: events are recorded from the queue's decision
// path with no wall-clock content, and a cache-replayed verdict records
// the same event payload the original match produced. The JSONL export
// is therefore byte-identical with the cache on and off — the
// differential tests in tests/integration pin this.
//
// Unlike TraceLog (process-wide, dual-clock, Chrome-trace oriented), an
// EventLog belongs to one owner — the JobQueue that records into it, or
// a tool tracking its own match attempts — so two queues never interleave
// and tests can assert exact content.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fluxion::obs {

/// One job-lifecycle event. `args` values are pre-encoded JSON fragments
/// (quoted string or bare number), same convention as TraceEvent.
struct JobEvent {
  std::int64_t time = 0;  // simulated seconds
  std::int64_t job = -1;
  std::string kind;       // submit, probe, blocked, reserve, alloc, ...
  std::vector<std::pair<std::string, std::string>> args;
};

class EventLog {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  void clear() { events_.clear(); }
  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<JobEvent>& events() const noexcept { return events_; }

  /// Append one event (no-op while disabled, so call sites stay bare).
  void record(std::int64_t time, std::int64_t job, std::string kind,
              std::vector<std::pair<std::string, std::string>> args = {});

  /// Events of one job, in record order.
  std::vector<const JobEvent*> for_job(std::int64_t job) const;

  /// One JSON object per line:
  ///   {"t":<sim s>,"job":<id>,"ev":"<kind>",...args}
  /// Args are flattened into the object so downstream line filters stay
  /// one-level (`fluxion-analyze`, jq).
  std::string jsonl() const;

  /// Render one event as its JSONL line (no trailing newline).
  static std::string to_json(const JobEvent& ev);

 private:
  bool enabled_ = false;
  std::vector<JobEvent> events_;
};

/// Convenience: quote + escape a string for use as a JobEvent arg value.
std::string event_str(const std::string& s);

}  // namespace fluxion::obs
