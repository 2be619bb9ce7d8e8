// The benchmark's workloads: what machine each one builds, which queue
// and traversal settings it runs, and the seeded trace it replays.
//
// Inputs are made outside every timed region by sim::generate_trace (a
// fixed job population per workload), shuffled by the seed, and
// sim::stamp_poisson_arrivals (seeded) for the streams. Each job is
// handed to the engine as jobspec YAML, rendered here once per run, so
// the timed replay parses it at submit as a user's submission would be.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/resource_query.hpp"
#include "grug/grug.hpp"
#include "hier/federation.hpp"
#include "queue/job_queue.hpp"
#include "sim/workload.hpp"
#include "util/expected.hpp"

namespace perfbench {

namespace fx = fluxion;

struct WorkloadSpec {
  std::string name;
  bool federated = false;
  int racks = 2;  // quartz racks of 62 nodes x 36 cores
  fx::queue::QueuePolicy policy = fx::queue::QueuePolicy::easy_backfill;
  fx::traverser::TraversalMode mode = fx::traverser::TraversalMode::scored;
  std::size_t leaves = 0;  // federated: leaf instances (levels 1)
  fx::sim::TraceConfig trace;
  /// Mean Poisson inter-arrival time in simulated seconds; 0 submits the
  /// whole trace at t=0 (a queue snapshot replay).
  double mean_interarrival = 0.0;
  /// How hard the host's slow episodes hit this workload's replay,
  /// relative to the speed probe: pass wall time goes as (mean probe
  /// time)^speed_exponent (speed_probe.hpp).
  double speed_exponent = 1.0;
  /// Mean inter-arrival time of the fixed-seed trace that gives
  /// avg_wait_sim_s; 0 uses mean_interarrival.
  double quality_interarrival = 0.0;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

inline constexpr std::int64_t kCoresPerNode = 36;
inline constexpr std::uint64_t kPopulationSeed = 0x5eed;
/// Seed of the trace whose reference schedule gives avg_wait_sim_s.
inline constexpr std::uint64_t kQualitySeed = 1;

struct Inputs {
  fx::grug::Recipe recipe;
  std::vector<fx::sim::TraceJob> trace;
  std::vector<std::size_t> order;  // trace indices in arrival order
  std::vector<std::string> yaml;   // jobspec per trace index
};

fx::util::Expected<Inputs> make_inputs(const WorkloadSpec& spec,
                                       std::uint64_t seed);

/// One freshly built engine: a flat ResourceQuery + JobQueue, or a
/// Federation.
struct Engine {
  std::unique_ptr<fx::core::ResourceQuery> rq;
  std::unique_ptr<fx::queue::JobQueue> queue;
  std::unique_ptr<fx::hier::Federation> fed;
};

fx::util::Expected<Engine> build_engine(const WorkloadSpec& spec,
                                        const Inputs& in);

}  // namespace perfbench
