// Aggregation for the repository benchmark: per-request virtual-time stamps
// and the end-to-end figures derived from them.
//
// Every timestamp is virtual time (ns on the simulated GPU's clock). Stamps
// are keyed by (request, token index) and keep their FIRST observation: a LIP
// that fails over to another replica re-executes its program, and the journal
// hands its already-served preds back immediately, so without the rule a
// replay would add near-zero token gaps and count a request twice.
#ifndef SYMBENCH_METRICS_H_
#define SYMBENCH_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace symbench {

using symphony::SimDuration;
using symphony::SimTime;

inline constexpr SimTime kUnset = -1;

// One percentile with the sample count behind it. `beyond` is how many
// samples rank strictly above the reported one; a p99 is valid only with at
// least 10 of them.
struct Percentile {
  double value = 0.0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
};

// Nearest-rank percentile (q in (0, 1]) of `samples`; all zeros when empty.
Percentile TakePercentile(std::vector<double> samples, double q);

enum class Outcome : uint8_t {
  // Never finished: a Submit wait-queue entry whose deadline passed before
  // it launched is shed at dequeue and never runs. Counted as shed_expired.
  kPending,
  kOk,               // Completed with every answer it asked for.
  kRejected,         // Submit refused it (queue full / projected late).
  kDeadlineExpired,  // Launched, then cut off by its per-request deadline.
  kFailed,           // Launched and ended without a complete answer.
};

struct TokenStamp {
  SimTime at = kUnset;
  uint32_t generation = 0;  // Token gaps are only taken within one generation.
};

// Everything the benchmark observes about one request.
struct RequestRecord {
  SimTime arrival = 0;       // Scheduled arrival; every latency starts here.
  bool warmup = false;       // Arrived in the warm-up prefix.
  bool observe_tokens = true;  // False when tokens are produced out of sight.
  Outcome outcome = Outcome::kPending;
  SimTime started = kUnset;   // Program's first instruction.
  SimTime finished = kUnset;  // on_exit.
  std::vector<SimTime> restarts;  // Later starts: journal replays.
  std::vector<TokenStamp> tokens;  // By token index within the request.
  uint64_t generated = 0;          // Answer tokens (all threads).
  // New tokens the request itself feeds the model when it runs to the end
  // (its prompt, answers and appends; shared prefixes excluded).
  uint64_t work_tokens = 0;
  SimDuration pred = 0;  // Virtual time spent awaiting pred / generation.
  SimDuration tool = 0;  // Virtual time spent awaiting call_tool.
};

// Records `at` into *slot unless it already holds an observation.
void StampOnce(SimTime* slot, SimTime at);
// Records the program's first instruction; later calls are replays.
void StampStart(RequestRecord& record, SimTime at);
// First observation of token `index` wins.
void StampToken(RequestRecord& record, size_t index, uint32_t generation,
                SimTime at);

// Exact per-request split of the end-to-end latency. `other` is what no
// stamped stage covers (wake-ups, failover stalls); it is never negative
// because stage intervals of one request do not overlap.
struct StageSplit {
  SimDuration admission = 0;
  SimDuration pred = 0;
  SimDuration tool = 0;
  SimDuration other = 0;
};
StageSplit SplitStages(const RequestRecord& record);

// Frozen per-workload service-level limits (virtual time).
struct Limits {
  SimDuration ttft = 0;
  SimDuration e2e = 0;
};

// True when the request completed within both limits. Requests whose tokens
// are not observed are held to the e2e limit only.
bool MetLimits(const RequestRecord& record, const Limits& limits);

struct Summary {
  uint64_t offered = 0;
  uint64_t measured = 0;  // Offered outside the warm-up prefix.
  uint64_t succeeded = 0;
  uint64_t rejected = 0;
  uint64_t shed_expired = 0;  // Requests left pending.
  uint64_t deadline_expired = 0;
  uint64_t failed = 0;
  uint64_t good = 0;  // Measured requests that met the limits.
  Percentile ttft_p50, ttft_p99, tbt_p50, tbt_p99, e2e_p50, e2e_p99;
  Percentile admission_p50, admission_p99;
  double goodput_rps = 0.0;
  double fail_ratio = 0.0;
  double output_tok_s = 0.0;
  uint64_t generated = 0;         // Answer tokens of every request.
  uint64_t useful_tokens = 0;     // work_tokens of requests within limits.
  double stage_admission_ms_mean = 0.0;
  double stage_pred_ms_mean = 0.0;
  double stage_tool_ms_mean = 0.0;
  double stage_other_ms_mean = 0.0;
  double stall_ms_max = 0.0;  // Worst failover stall (see FailoverStall).
};

// `window` is the measured arrival window (warm-up end to last arrival) and
// `makespan` the virtual time at which the last request finished.
Summary Summarize(const std::vector<RequestRecord>& records,
                  const Limits& limits, SimDuration window,
                  SimDuration makespan);

// For a request that was replayed, the gap from its last token observed
// before each restart to the next token delivered after it; 0 otherwise.
SimDuration FailoverStall(const RequestRecord& record);

// Deterministic digest of every virtual-time observation, used to check that
// repeated, traced and untraced runs of one seed saw the same simulation.
uint64_t Fingerprint(const std::vector<RequestRecord>& records);

}  // namespace symbench

#endif  // SYMBENCH_METRICS_H_
