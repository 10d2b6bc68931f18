// The benchmark's workloads. Each one builds its inputs from the seed, runs
// them open-loop on the public serving API, and returns the virtual-time
// summary, the per-layer counters and (when asked) the output check.
//
// Rates, sizes and limits are constants frozen in each workload's source
// file; README.md records the calibration they came from.
#ifndef SYMBENCH_WORKLOADS_H_
#define SYMBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"

namespace symbench {

struct RunOptions {
  // When set, the run records spans and samplers into it and wires a
  // TraceRecorder into every replica.
  BenchTrace* trace = nullptr;
  // Run the output check after the timed phase.
  bool check = false;
  // Stop after the timed set-up (extra setup_s samples).
  bool setup_only = false;
};

using WorkloadFn = RunResult (*)(uint64_t seed, const RunOptions& options);

RunResult RunRag(uint64_t seed, const RunOptions& options);
RunResult RunChatBurst(uint64_t seed, const RunOptions& options);
RunResult RunAgentFailover(uint64_t seed, const RunOptions& options);

// Prints the seed-commit calibration each workload's constants came from.
void CalibrateRag();
void CalibrateChatBurst();
void CalibrateAgentFailover();

}  // namespace symbench

#endif  // SYMBENCH_WORKLOADS_H_
