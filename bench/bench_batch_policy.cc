// §4.4 ablation: batch-trigger policy of the inference scheduler.
//
// Open-loop decode workload: N independent LIPs, each running a decode loop,
// joining at Poisson-random times. Sweeps the arrival rate and compares the
// three batch policies on mean latency per token, mean batch size, and GPU
// utilization. Eager launches whatever is queued the moment the device goes
// idle; size/timeout waits for a target; Poisson-adaptive targets the batch
// size the estimated arrival rate can sustain (the paper's proposal).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/server.h"
#include "src/sim/distributions.h"

namespace symphony {
namespace {

struct PolicyResult {
  double mean_ms_per_token = 0.0;
  double p99_ms_per_token = 0.0;
  double mean_batch = 0.0;
  double utilization = 0.0;
  uint64_t batches = 0;
  // GPU-seconds consumed per generated token: the efficiency axis that
  // batching improves even when client-visible latency gets worse.
  double gpu_ms_per_token = 0.0;
};

PolicyResult RunDecodeLoad(BatchPolicyKind policy, double lips_per_sec, int num_lips) {
  Simulator sim;
  ServerOptions options;
  options.batch_policy = policy;
  SymphonyServer server(&sim, options);

  constexpr int kContextTokens = 256;
  constexpr int kDecodeTokens = 48;

  SampleSeries ms_per_token;
  PoissonProcess arrivals(lips_per_sec, /*seed=*/7);
  SimTime when = 0;
  for (int i = 0; i < num_lips; ++i) {
    when += arrivals.NextGap();
    sim.ScheduleAt(when, [&, i] {
      SimTime start = sim.now();
      server.Launch(
          "decode-" + std::to_string(i),
          [&, i](LipContext& ctx) -> Task {
            KvHandle kv = *ctx.kv_tmp();
            std::vector<TokenId> prompt;
            for (int p = 0; p < kContextTokens; ++p) {
              prompt.push_back(
                  static_cast<TokenId>(kFirstWordToken + ((i * 31 + p) % 1000)));
            }
            StatusOr<std::vector<Distribution>> d0 = co_await ctx.pred(kv, prompt);
            if (!d0.ok()) {
              co_return;
            }
            TokenId t = d0->back().Argmax();
            for (int step = 0; step < kDecodeTokens; ++step) {
              StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, t);
              if (!d.ok()) {
                co_return;
              }
              t = d->back().Argmax();
            }
            co_return;
          },
          [&, start](LipId) {
            ms_per_token.Add(ToMillis(sim.now() - start) / kDecodeTokens);
          });
    });
  }
  sim.Run();

  PolicyResult result;
  result.mean_ms_per_token = ms_per_token.mean();
  result.p99_ms_per_token = ms_per_token.Percentile(0.99);
  result.mean_batch = server.device().batch_sizes().mean();
  result.utilization = server.device().Utilization();
  result.batches = server.device().stats().batches;
  result.gpu_ms_per_token =
      ToMillis(server.device().stats().busy_time) /
      static_cast<double>(server.device().stats().new_tokens);
  return result;
}

}  // namespace
}  // namespace symphony

int main() {
  using namespace symphony;
  std::printf("bench_batch_policy: two-level scheduler batch triggers (paper 4.4)\n");

  const std::vector<std::pair<BatchPolicyKind, const char*>> policies = {
      {BatchPolicyKind::kEager, "eager"},
      {BatchPolicyKind::kSizeTimeout, "size-timeout"},
      {BatchPolicyKind::kPoissonAdaptive, "poisson"},
  };

  for (double rate : {2.0, 8.0, 24.0}) {
    BenchTable table({"policy", "ms/tok(mean)", "ms/tok(p99)", "mean_batch",
                      "batches", "gpu_util", "gpu_ms/tok"});
    for (const auto& [kind, name] : policies) {
      PolicyResult r = RunDecodeLoad(kind, rate, /*num_lips=*/120);
      table.AddRow({name, Fmt(r.mean_ms_per_token), Fmt(r.p99_ms_per_token),
                    Fmt(r.mean_batch, 1), std::to_string(r.batches),
                    Fmt(r.utilization), Fmt(r.gpu_ms_per_token)});
    }
    table.Print("decode load at " + Fmt(rate, 1) + " new LIPs/s (48-token decodes)");
  }
  return 0;
}
