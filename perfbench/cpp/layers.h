// Per-layer metrics for one workload, from a traced run plus timed calls
// into each layer's public functions on inputs shaped by that run.
//
// Counts come from the run's MetricsReport; stage.* from
// ComputeStageBreakdown over the merged trace; host *_ns / *_ms values from
// timing the layer's public entry points in this process (steady_clock,
// median of several timed batches). Metric names are <module>.<metric>.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/cpp/workloads.h"

namespace optilog::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// `plain` is an untraced run and `traced` a traced run of the same workload
// and seed; `traced` must still hold its deployment.
std::vector<Metric> LayerMetrics(const RunOutcome& plain,
                                 const RunOutcome& traced, uint64_t seed);

double Median(std::vector<double> v);

}  // namespace optilog::perfbench
