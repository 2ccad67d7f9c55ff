// The three benchmark workloads, driven only through the library's public
// surface: Deployment::Builder, Start, RunUntil, Metrics, TraceRecords.
//
//   tree_wan      OptiTree on GlobalN(73), open-loop Poisson fleet, two
//                 root crashes.
//   shard_txn     8 HotStuff groups on Europe21, closed-loop transaction
//                 fleet with 10% cross-shard 2PC, one anchor crash.
//   aware_attack  OptiAware on Europe21 under a leader pre-prepare delay
//                 attack (the OptiAware point of fig07_runtime_attack).
//
// A run builds the deployment (timed as set-up), then advances simulated
// time in fixed steps (timed as the run), sampling the fleet's completion
// counter after each step. The modeled end-to-end metrics are computed from
// that series and from the fleet's own accounting, so they are exact for a
// seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/deployment.h"
#include "src/obs/trace.h"
#include "src/rsm/metrics.h"
#include "src/shard/sharded_deployment.h"

namespace optilog::perfbench {

// Simulated-time step between completion-counter samples.
constexpr SimTime kStep = 100 * kMsec;

struct WorkloadShape {
  std::string name;
  SimTime horizon = 0;   // new work starts in [0, horizon]
  SimTime drain = 0;     // extra time for in-flight work to finish
  SimTime warmup = 0;    // excluded from ops_per_s
  std::vector<SimTime> faults;  // injected fault instants
  // OptiTree simulated-annealing iterations (initial and reconfiguration
  // searches); the library default where the workload does not set it.
  uint64_t search_budget = 5'000;
};

struct RunOutcome {
  WorkloadShape shape;
  double setup_s = 0.0;  // Build/BuildSharded + Start, host seconds
  double run_s = 0.0;    // every RunUntil step, host seconds
  MetricsReport metrics;
  std::string fingerprint;
  std::vector<TraceRecord> records;  // empty unless traced

  // Modeled end-to-end metrics.
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t p50_samples = 0;
  uint64_t p99_samples = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  double fail_ratio = 0.0;
  double recovery_s = 0.0;
  // Client completions per kStep of simulated time.
  std::vector<uint64_t> completions;

  // Correctness inputs.
  uint64_t kv_mismatches = 0;
  bool has_state_machine = false;
  uint32_t digests_equal = 0;

  // The deployment, kept alive for the per-layer probes (exactly one is set).
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<ShardedDeployment> sharded;
};

const std::vector<std::string>& WorkloadNames();
bool IsWorkload(const std::string& name);

// The workload's timeline from `seed`: the full one for end-to-end runs, or
// the shorter one traced runs (and the untraced runs they are compared
// with) use.
WorkloadShape ShapeOf(const std::string& name, bool traced, uint64_t seed);

// Builds, starts and runs one workload from `seed`. `trace` attaches the
// flight recorder. `keep` retains the deployment in the outcome.
RunOutcome RunWorkload(const WorkloadShape& shape, uint64_t seed, bool trace,
                       bool keep);

// Build + Start only (a set-up sample); the deployment is destroyed.
double SetupOnce(const std::string& name, uint64_t seed);

}  // namespace optilog::perfbench
