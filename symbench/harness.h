// Shared plumbing for the benchmark workloads: the run result every workload
// returns, the benchmark-side trace, the read-only samplers, and the
// per-layer counters read from the public stats()/Snapshot() accessors.
#ifndef SYMBENCH_HARNESS_H_
#define SYMBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics.h"
#include "src/model/model.h"
#include "src/runtime/lip_context.h"
#include "src/serve/cluster.h"
#include "src/serve/server.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"

namespace symbench {

using symphony::ClusterOptions;
using symphony::KvHandle;
using symphony::LipContext;
using symphony::LipId;
using symphony::LipProgram;
using symphony::ServerOptions;
using symphony::Simulator;
using symphony::SymphonyCluster;
using symphony::SymphonyServer;
using symphony::Task;
using symphony::TokenId;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host cost (setup_s, run_s) is the process's CPU time: the simulator is
// single-threaded, and on a shared machine wall time also counts the time
// other tenants hold the core.
inline double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Benchmark-side trace of one run, kept in memory until the run ends:
// spans around each request, its admission, every pred and call_tool, plus
// the periodic sampler readings and one TraceRecorder per replica (wired in
// through ServerOptions::trace). Everything is virtual time except the KV
// syscall host timings.
class BenchTrace {
 public:
  // A child span of request `req` (parent: the request's own span).
  void AddSpan(const char* name, uint64_t req, SimTime start, SimTime end) {
    spans_.push_back(Span{name, req, start, end});
  }
  void AddSample(SimTime at, double queue_depth, double gpu_pages) {
    samples_.push_back(Sample{at, queue_depth, gpu_pages});
  }
  void AddKvHostNs(double ns) { kv_host_ns_.push_back(ns); }
  // A recorder for one replica (or the cluster); owned by the trace.
  symphony::TraceRecorder* NewRecorder() {
    recorders_.push_back(std::make_unique<symphony::TraceRecorder>());
    return recorders_.back().get();
  }

  // Keeps the run's request records for the request spans of the output.
  void KeepRecords(std::vector<RequestRecord> records) {
    records_ = std::move(records);
  }

  double QueueDepthP99() const;
  double GpuPagesPeak() const;
  double KvHostUsP50() const;
  // Writes Chrome trace-event JSON: request spans (one row per request;
  // children carry the request id and their parent span id), sampler
  // counters, then every recorder's events under its own pid.
  bool WriteChromeJson(std::FILE* out) const;

 private:
  struct Span {
    const char* name;
    uint64_t req;
    SimTime start;
    SimTime end;
  };
  struct Sample {
    SimTime at;
    double queue_depth;
    double gpu_pages;
  };
  std::vector<RequestRecord> records_;
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
  std::vector<double> kv_host_ns_;
  std::vector<std::unique_ptr<symphony::TraceRecorder>> recorders_;
};

// Calls `fn` every `period` of virtual time for as long as `active()` holds.
// The traced run's samplers use it with read-only probes, so a traced run
// dispatches the same simulation as an untraced one plus these events.
void StartPeriodic(Simulator* sim, SimDuration period,
                   std::function<bool()> active, std::function<void()> fn);

// Runs a synchronous kv_* syscall, timing it on the host when tracing.
template <typename F>
auto TimedKv(BenchTrace* trace, F&& call) {
  if (trace == nullptr) {
    return call();
  }
  Clock::time_point start = Clock::now();
  auto result = call();
  trace->AddKvHostNs(
      std::chrono::duration<double, std::nano>(Clock::now() - start).count());
  return result;
}

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "count";
};

// Opens the named shared file at `path` and returns a private CoW fork of
// it, or an error when the file is missing.
symphony::StatusOr<KvHandle> ForkNamed(LipContext& ctx, const std::string& path,
                                       BenchTrace* trace);

// Publishes a fork of `kv` as the shared named file `path` unless another
// LIP already did.
void PublishNamed(LipContext& ctx, KvHandle kv, const std::string& path,
                  BenchTrace* trace);

// Samples the scheduler queue depth and GPU KV pages summed over `servers`.
void SampleLoad(BenchTrace* trace, SimTime at,
                const std::vector<SymphonyServer*>& servers);

// The greedy answer of `answer_tokens` tokens a model gives after consuming
// `prompt` at positions [position, ...) from `state`: the reference every
// greedy LIP answer is checked against.
std::vector<TokenId> GreedyReplay(const symphony::Model& model,
                                  symphony::HiddenState state,
                                  int32_t position,
                                  const std::vector<TokenId>& prompt,
                                  size_t answer_tokens);

// Per-layer metrics in report order.
using Layers = std::vector<Metric>;

// The value of metric `name` (0 when absent).
double LayerValue(const Layers& layers, const std::string& name);

// What one run of a workload produced.
struct RunResult {
  double setup_s = 0.0;  // CPU s: build server/cluster, inputs, schedule.
  double run_s = 0.0;    // CPU s: Simulator::Run.
  uint64_t events = 0;   // Events Simulator::Run dispatched.
  SimTime makespan = 0;  // Virtual time the last request finished.
  Summary summary;
  Layers layers;
  uint64_t fingerprint = 0;  // Fingerprint() of the records (+ counters).
  std::string check_error;   // Empty when the output check passed / was off.
};

// Accumulates the per-layer counters of every server incarnation a run used
// (a readmitted cluster slot is a new server; the old one keeps its stats).
struct ServerLayers {
  void Add(SymphonyServer& server);

  uint64_t admitted = 0, rejected = 0, shed_expired = 0, deadline_expired = 0;
  uint64_t context_switches = 0, threads_spawned = 0, preds_submitted = 0;
  uint64_t batches = 0, batch_items = 0, prefill_tokens = 0, decode_tokens = 0;
  uint64_t memory_requeues = 0, cancelled = 0;
  SimDuration busy = 0, transfer = 0;
  uint64_t new_tokens = 0, transfer_bytes = 0;
  uint64_t forks = 0, offloaded_pages = 0, restored_pages = 0;
  uint64_t evicted_files = 0, cow_copies = 0;
  uint64_t tool_calls = 0, tool_retries = 0, tool_failures = 0;
  uint64_t lips_replayed = 0, tokens_imported = 0, tokens_recomputed = 0;
  uint64_t divergences = 0;
  std::vector<double> queue_waits_ms;
};

// Cluster-only layers; all zero for single-server workloads.
struct ClusterLayers {
  size_t replicas = 1;  // GPU slots, the base of gpu.utilization.
  uint64_t net_transfers = 0, net_payload_bytes = 0;
  uint64_t store_published_bytes = 0, store_deduped_bytes = 0;
  uint64_t store_fetched_bytes = 0, warm_imports = 0;
  uint64_t failovers = 0, checkpoints = 0, ship_bytes = 0;
  uint64_t heartbeats_sent = 0, false_suspicions = 0;
  double detection_ms = 0.0;
};

// Builds the per-layer metric list shared by every workload.
Layers CollectLayers(const RunResult& run, const ServerLayers& servers,
                     const ClusterLayers& cluster, double cache_hit_ratio,
                     const BenchTrace* trace);

}  // namespace symbench

#endif  // SYMBENCH_HARNESS_H_
