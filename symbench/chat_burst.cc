// Workload `chat_burst`: interactive chat on one server with admission
// control and per-request deadlines (SymphonyServer::Submit).
//
// Prompts and answers of varied length with no shared prefix; a quarter of
// the requests are best-of-4 (liplib BestOfN: one prefill, four forks, four
// decode threads), which deepens the scheduler queue. Arrivals are Poisson
// at a base rate with a periodic burst to 3x it; the mean offered load is
// 0.85x the seed commit's saturation throughput, so bursts overload the
// server and admission, deadlines and batch formation over a deep queue do
// the work. No request opens a named KV file: a prefix-caching change must
// show no effect here.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/liplib/generation.h"
#include "src/model/model.h"
#include "workloads.h"

namespace symbench {
namespace {

using symphony::Distribution;
using symphony::GenOptions;
using symphony::GenResult;
using symphony::Millis;
using symphony::Rng;
using symphony::Seconds;
using symphony::StatusOr;

// Frozen on the seed commit (README.md, "Calibration").
constexpr double kBaseRate = 4.9;  // Requests per virtual second off-burst.
constexpr double kBurstFactor = 3.0;
constexpr SimDuration kBurstPeriod = Seconds(20);
constexpr SimDuration kBurstLength = Seconds(4);
constexpr size_t kRequests = 12000;
constexpr SimDuration kWarmup = Seconds(20);
constexpr Limits kLimits{Millis(1500), Millis(8000)};
constexpr uint32_t kMinPrompt = 64, kMaxPrompt = 512;
constexpr uint32_t kMinAnswer = 16, kMaxAnswer = 128;
constexpr double kBestOfShare = 0.25;
constexpr int kBestOfN = 4;
constexpr SimDuration kSamplePeriod = Millis(50);

ServerOptions Options() {
  ServerOptions options;  // Llama-13B on A100, eager batching.
  options.admission.enabled = true;
  options.admission.max_live_lips = 32;
  options.admission.max_queue = 16;
  return options;
}

struct ChatRequest {
  std::vector<TokenId> prompt;
  uint32_t answer_tokens = 0;
  bool best_of = false;
};

struct ChatRun {
  std::vector<ChatRequest> requests;
  std::vector<RequestRecord> records;
  std::vector<std::vector<TokenId>> answers;
  size_t finished = 0;
  BenchTrace* trace = nullptr;
};

// How a request that did not complete ended: cut off by its deadline, or a
// genuine failure.
Outcome Unfinished(const RequestRecord& rec, SimTime now,
                   SimDuration deadline) {
  return deadline > 0 && now >= rec.arrival + deadline
             ? Outcome::kDeadlineExpired
             : Outcome::kFailed;
}

LipProgram MakeRequest(ChatRun* run, size_t i, SimDuration deadline) {
  return [run, i, deadline](LipContext& ctx) -> Task {
    RequestRecord& rec = run->records[i];
    const ChatRequest& req = run->requests[i];
    BenchTrace* trace = run->trace;
    StampStart(rec, ctx.now());
    if (trace != nullptr) {
      trace->AddSpan("submit", i, rec.arrival, ctx.now());
    }
    StatusOr<KvHandle> kv = TimedKv(trace, [&] { return ctx.kv_tmp(); });
    if (!kv.ok()) {
      rec.outcome = Unfinished(rec, ctx.now(), deadline);
      co_return;
    }
    if (req.best_of) {
      GenOptions options;
      options.max_new_tokens = req.answer_tokens;
      options.stop_at_eos = false;
      SimTime t0 = ctx.now();
      GenResult best = co_await symphony::BestOfN(ctx, *kv, req.prompt,
                                                  kBestOfN, options);
      rec.pred += ctx.now() - t0;
      if (trace != nullptr) {
        trace->AddSpan("pred", i, t0, ctx.now());
      }
      if (!best.ok()) {
        rec.outcome = Unfinished(rec, ctx.now(), deadline);
        co_return;
      }
      rec.generated = best.tokens.size();
      rec.outcome = best.tokens.size() == req.answer_tokens ? Outcome::kOk
                                                            : Outcome::kFailed;
      co_return;
    }
    std::vector<TokenId> input = req.prompt;
    std::vector<TokenId>& answer = run->answers[i];
    while (answer.size() < req.answer_tokens) {
      SimTime t0 = ctx.now();
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred(*kv, input);
      rec.pred += ctx.now() - t0;
      if (trace != nullptr) {
        trace->AddSpan("pred", i, t0, ctx.now());
      }
      if (!d.ok()) {
        rec.outcome = Unfinished(rec, ctx.now(), deadline);
        co_return;
      }
      TokenId next = d->back().Argmax();
      StampToken(rec, answer.size(), 0, ctx.now());
      answer.push_back(next);
      ++rec.generated;
      input.assign(1, next);
    }
    (void)TimedKv(trace, [&] { return ctx.kv_close(*kv); });
    rec.outcome = Outcome::kOk;
    co_return;
  };
}

// Greedy answers equal a direct Model replay of prompt + answer; no request
// fails for any reason other than admission or its deadline, and best-of-4
// requests that completed returned a full answer.
std::string CheckAnswers(const ChatRun& run, const ServerOptions& options) {
  symphony::Model model(options.model);
  for (size_t i = 0; i < run.records.size(); ++i) {
    const RequestRecord& rec = run.records[i];
    const ChatRequest& req = run.requests[i];
    if (rec.outcome == Outcome::kFailed) {
      return "request " + std::to_string(i) + " failed";
    }
    if (rec.outcome != Outcome::kOk || req.best_of) {
      continue;
    }
    std::vector<TokenId> expect = GreedyReplay(
        model, model.InitialState(), 0, req.prompt, req.answer_tokens);
    if (expect != run.answers[i]) {
      return "request " + std::to_string(i) + " answer differs from replay";
    }
  }
  return "";
}

// Offered rate at virtual time `t`: the base rate with a burst at the start
// of every period.
double RateAt(SimTime t, double base_rate, double burst_factor) {
  return t % kBurstPeriod < kBurstLength ? base_rate * burst_factor
                                         : base_rate;
}

struct ChatShape {
  double base_rate = kBaseRate;
  double burst_factor = kBurstFactor;
  size_t requests = kRequests;
  bool deadlines = true;
};

RunResult RunChatAt(uint64_t seed, const ChatShape& shape,
                    const RunOptions& mode) {
  RunResult result;
  BenchTrace* trace = mode.trace;
  double setup_start = CpuSeconds();
  Simulator sim;
  ServerOptions options = Options();
  options.trace = trace != nullptr ? trace->NewRecorder() : nullptr;
  SymphonyServer server(&sim, options);
  SimDuration deadline = shape.deadlines ? kLimits.e2e : 0;
  ChatRun run;
  run.trace = trace;
  run.requests.resize(shape.requests);
  run.records.resize(shape.requests);
  run.answers.resize(shape.requests);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4a7);
  const uint32_t words = options.model.vocab_size - symphony::kFirstWordToken;
  // Non-homogeneous Poisson arrivals by thinning a peak-rate process.
  double peak = shape.base_rate * shape.burst_factor;
  SimTime when = 0;
  for (size_t i = 0; i < shape.requests; ++i) {
    do {
      when += symphony::DurationFromSeconds(rng.NextExponential(peak));
    } while (rng.NextDouble() * peak >
             RateAt(when, shape.base_rate, shape.burst_factor));
    ChatRequest& req = run.requests[i];
    uint32_t prompt_len = kMinPrompt + static_cast<uint32_t>(rng.NextBounded(
                                           kMaxPrompt - kMinPrompt + 1));
    for (uint32_t t = 0; t < prompt_len; ++t) {
      req.prompt.push_back(symphony::kFirstWordToken +
                           static_cast<TokenId>(rng.NextBounded(words)));
    }
    req.answer_tokens = kMinAnswer + static_cast<uint32_t>(rng.NextBounded(
                                         kMaxAnswer - kMinAnswer + 1));
    req.best_of = rng.NextDouble() < kBestOfShare;
    RequestRecord& rec = run.records[i];
    rec.arrival = when;
    rec.warmup = when < kWarmup;
    rec.observe_tokens = !req.best_of;
    rec.work_tokens = prompt_len + (req.best_of ? kBestOfN * req.answer_tokens
                                                : req.answer_tokens - 1);
    sim.ScheduleAt(when, [&server, &run, &sim, i, deadline, trace] {
      SymphonyServer::LaunchSpec spec;
      spec.name = "chat";
      spec.deadline = deadline;
      spec.program = MakeRequest(&run, i, deadline);
      spec.on_exit = [&run, &sim, i](LipId) {
        StampOnce(&run.records[i].finished, sim.now());
        ++run.finished;
      };
      SimTime submitted = sim.now();
      SymphonyServer::AdmitResult admit = server.Submit(std::move(spec));
      if (trace != nullptr) {
        trace->AddSpan("Submit", i, submitted, sim.now());
      }
      if (!admit.status.ok()) {
        run.records[i].outcome = Outcome::kRejected;
        ++run.finished;
      }
    });
  }
  SimTime last_arrival = when;
  if (trace != nullptr) {
    // Stops once every request resolved; a queue entry shed at dequeue never
    // fires on_exit, so also stop when the server has nothing left to do.
    StartPeriodic(
        &sim, kSamplePeriod,
        [&] {
          return run.finished < run.records.size() &&
                 (sim.now() <= last_arrival ||
                  server.runtime().live_lips() > 0 ||
                  server.admission_queue_depth() > 0);
        },
        [&] { SampleLoad(trace, sim.now(), {&server}); });
  }
  result.setup_s = CpuSeconds() - setup_start;
  if (mode.setup_only) {
    return result;
  }

  double run_start = CpuSeconds();
  result.events = sim.Run();
  result.run_s = CpuSeconds() - run_start;

  for (const RequestRecord& r : run.records) {
    result.makespan = std::max(result.makespan, r.finished);
  }
  result.summary = Summarize(run.records, kLimits, last_arrival - kWarmup,
                             result.makespan);
  ServerLayers servers;
  servers.Add(server);
  result.layers = CollectLayers(result, servers, ClusterLayers{}, 0.0, trace);
  result.fingerprint = Fingerprint(run.records) ^
                       static_cast<uint64_t>(servers.busy) ^ servers.batches;
  if (mode.check) {
    result.check_error = CheckAnswers(run, options);
    uint64_t pending = 0;
    for (const RequestRecord& r : run.records) {
      pending += r.outcome == Outcome::kPending ? 1 : 0;
    }
    if (result.check_error.empty() && pending != servers.shed_expired) {
      result.check_error = "requests left pending (" + std::to_string(pending) +
                           ") differ from queue sheds (" +
                           std::to_string(servers.shed_expired) + ")";
    }
  }
  if (trace != nullptr) {
    trace->KeepRecords(run.records);
  }
  return result;
}

}  // namespace

RunResult RunChatBurst(uint64_t seed, const RunOptions& options) {
  return RunChatAt(seed, ChatShape{}, options);
}

void CalibrateChatBurst() {
  std::printf("chat_burst calibration (seed 1)\n");
  ChatShape idle{0.2, 1.0, 150, false};
  RunResult r = RunChatAt(1, idle, RunOptions{});
  std::printf("  unloaded: ttft p50 %.3f p99 %.3f ms  tbt p50 %.3f p99 %.3f ms"
              "  e2e p50 %.3f p99 %.3f ms\n",
              r.summary.ttft_p50.value, r.summary.ttft_p99.value,
              r.summary.tbt_p50.value, r.summary.tbt_p99.value,
              r.summary.e2e_p50.value, r.summary.e2e_p99.value);
  // Saturation: without deadlines and offered far more than it can take,
  // the server never idles; completions per virtual second is its capacity.
  for (double rate : {20.0, 40.0}) {
    ChatShape flood{rate, 1.0, 3000, false};
    r = RunChatAt(1, flood, RunOptions{});
    std::printf("  flood %.0f/s: completed/s %.3f  output %.1f tok/s\n", rate,
                static_cast<double>(r.summary.succeeded) /
                    symphony::ToSeconds(r.makespan),
                r.summary.output_tok_s);
  }
  double mean = (static_cast<double>(kBurstPeriod - kBurstLength) +
                 static_cast<double>(kBurstLength) * kBurstFactor) /
                static_cast<double>(kBurstPeriod);
  std::printf("  frozen shape: base %.2f/s, bursts x%.1f, mean %.2f/s\n",
              kBaseRate, kBurstFactor, kBaseRate * mean);
}

}  // namespace symbench
