// Workload `agent_failover`: multi-turn tool-calling agents on a 4-replica
// SymphonyCluster with recovery, journal checkpoints and the control plane.
//
// An agent forks a 512-token tool-spec preamble kept as a named shared file
// (built once at start-up; prefix sharing publishes it through the snapshot
// store and the other replicas warm-import it),
// prefills its task, then runs turns of greedy decode -> call_tool (tens of
// ms, so its KV is offloaded during the tool I/O) -> a 64-token tool-result
// append. A seeded FaultPlan crashes every replica once for a few seconds;
// the control plane detects each crash from missed heartbeats and the
// journals replay the victims on survivors.
//
// This is the only workload that loads cluster routing (serve), recovery,
// store, net, ctrl and tools, and it uses KVFS the other way from `rag`:
// private files that grow by appends and move to host during tool waits.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/model/model.h"
#include "workloads.h"

namespace symbench {
namespace {

using symphony::Distribution;
using symphony::FaultPlan;
using symphony::Millis;
using symphony::Rng;
using symphony::Seconds;
using symphony::StatusOr;
using symphony::ToolInvocation;
using symphony::ToolSpec;

// Frozen on the seed commit (README.md, "Calibration").
constexpr size_t kReplicas = 4;
constexpr double kRate = 16.0;  // Agents per virtual second, Poisson.
constexpr size_t kAgents = 8000;
constexpr SimDuration kWarmup = Seconds(15);
constexpr Limits kLimits{Millis(500), Millis(6000)};
constexpr uint32_t kPreambleTokens = 512;
constexpr uint32_t kTurns = 4;
// Per agent / per turn lengths, uniform in [min, min + spread]: identical
// agents would make every KV restore after a tool wait the same size, and
// the token-gap tail would read one exact value for every seed.
constexpr uint32_t kTaskTokensMin = 32, kTaskTokensSpread = 64;
constexpr uint32_t kDecodeTokensMin = 8, kDecodeTokensSpread = 16;
constexpr uint32_t kResultTokensMin = 32, kResultTokensSpread = 64;
constexpr SimDuration kMinToolLatency = Millis(20);
constexpr uint64_t kToolLatencySpreadMs = 40;
constexpr SimDuration kMinDown = Seconds(2);
constexpr uint64_t kDownSpreadMs = 2000;
constexpr SimDuration kSharePeriod = Millis(20);
// Agents start arriving once the preamble is built on one replica and
// warm-imported by the others.
constexpr SimDuration kFirstArrival = Millis(250);
constexpr SimDuration kSamplePeriod = Millis(50);
constexpr const char* kPreamblePath = "/agent/toolspec";

std::vector<TokenId> WordTokens(uint64_t seed, uint32_t count, uint32_t vocab) {
  std::vector<TokenId> tokens;
  uint32_t words = vocab - static_cast<uint32_t>(symphony::kFirstWordToken);
  uint64_t h = symphony::Mix64(seed);
  for (uint32_t i = 0; i < count; ++i) {
    h = symphony::Mix64(h + i + 1);
    tokens.push_back(symphony::kFirstWordToken +
                     static_cast<TokenId>(h % words));
  }
  return tokens;
}

struct AgentPlan {
  std::vector<TokenId> task;
  uint32_t decode[kTurns] = {};
  uint32_t result[kTurns] = {};
};

struct AgentRun {
  std::vector<TokenId> preamble;
  std::vector<AgentPlan> plans;
  std::vector<RequestRecord> records;
  std::vector<SymphonyCluster::ClusterLip> ids;
  std::map<std::string, uint32_t> executions;  // Tool args -> handler runs.
  uint32_t vocab = 0;
  uint64_t hits = 0;
  size_t finished = 0;
  BenchTrace* trace = nullptr;
};

// The tool: deterministic latency and result per call, counting real
// handler executions (a journal replay serves the recorded result instead).
ToolSpec SearchTool(AgentRun* run) {
  ToolSpec spec;
  spec.name = "search";
  spec.description = "deterministic lookup; counts executions";
  spec.handler = [run](const std::string& args, Rng&) {
    ++run->executions[args];
    uint64_t h = symphony::Fnv1a(args);
    ToolInvocation out;
    out.latency = kMinToolLatency +
                  Millis(static_cast<int64_t>(h % kToolLatencySpreadMs));
    out.output = "result:" + std::to_string(h);
    return out;
  };
  return spec;
}

// Builds the shared preamble file once at start-up; the next sharing pass
// publishes it to the store and warm-imports it on the other replicas.
LipProgram BuildPreamble(const AgentRun* run) {
  return [run](LipContext& ctx) -> Task {
    StatusOr<KvHandle> kv = ctx.kv_create(kPreamblePath, symphony::kModeShared);
    if (kv.ok()) {
      (void)co_await ctx.pred(*kv, run->preamble);
      (void)ctx.kv_close(*kv);
    }
    co_return;
  };
}

LipProgram MakeAgent(AgentRun* run, size_t i) {
  return [run, i](LipContext& ctx) -> Task {
    RequestRecord& rec = run->records[i];
    BenchTrace* trace = run->trace;
    StampStart(rec, ctx.now());
    if (trace != nullptr) {
      trace->AddSpan("submit", i, rec.arrival, ctx.now());
    }
    auto timed_pred = [&](SimTime t0) {
      rec.pred += ctx.now() - t0;
      if (trace != nullptr) {
        trace->AddSpan("pred", i, t0, ctx.now());
      }
    };
    StatusOr<KvHandle> fork = ForkNamed(ctx, kPreamblePath, trace);
    bool hit = fork.ok();
    KvHandle kv{};
    if (hit) {
      kv = *fork;
    } else {
      StatusOr<KvHandle> fresh = TimedKv(trace, [&] { return ctx.kv_tmp(); });
      if (!fresh.ok()) {
        co_return;
      }
      kv = *fresh;
      SimTime t0 = ctx.now();
      StatusOr<std::vector<Distribution>> d =
          co_await ctx.pred(kv, run->preamble);
      timed_pred(t0);
      if (!d.ok()) {
        co_return;
      }
      PublishNamed(ctx, kv, kPreamblePath, trace);
    }
    run->hits += hit && rec.restarts.empty() ? 1 : 0;

    const AgentPlan& plan = run->plans[i];
    std::vector<TokenId> input = plan.task;
    size_t index = 0;
    for (uint32_t turn = 0; turn < kTurns; ++turn) {
      TokenId last = 0;
      for (uint32_t step = 0; step < plan.decode[turn]; ++step) {
        SimTime t0 = ctx.now();
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred(kv, input);
        timed_pred(t0);
        if (!d.ok()) {
          co_return;
        }
        last = d->back().Argmax();
        StampToken(rec, index++, turn, ctx.now());
        ctx.emit(std::to_string(last) + " ");
        input.assign(1, last);
      }
      std::string args = std::to_string(i) + ":" + std::to_string(turn) + ":" +
                         std::to_string(last);
      SimTime t0 = ctx.now();
      StatusOr<std::string> result = co_await ctx.call_tool("search", args);
      rec.tool += ctx.now() - t0;
      if (trace != nullptr) {
        trace->AddSpan("call_tool", i, t0, ctx.now());
      }
      if (!result.ok()) {
        co_return;
      }
      ctx.emit("[" + *result + "] ");
      // The last decoded token and the tool result join the context together.
      input = WordTokens(symphony::Fnv1a(*result), plan.result[turn],
                         run->vocab);
      input.insert(input.begin(), last);
    }
    rec.generated = index;
    rec.outcome = Outcome::kOk;
    co_return;
  };
}

// Deterministic crash schedule: every replica goes down once, at a seeded
// point of its own quarter of the measured arrival window, for 2-4 s.
void ArmCrashes(FaultPlan& plan, uint64_t seed, SimTime window_start,
                SimTime window_end) {
  Rng rng(seed ^ 0xc7a5);
  SimDuration slice = (window_end - window_start) / kReplicas;
  for (size_t r = 0; r < kReplicas; ++r) {
    SimTime at = window_start + slice * static_cast<SimDuration>(r) +
                 static_cast<SimDuration>(rng.NextDouble() * 0.6 *
                                          static_cast<double>(slice)) +
                 slice / 5;
    SimDuration down =
        kMinDown + Millis(static_cast<int64_t>(rng.NextBounded(kDownSpreadMs)));
    plan.CrashReplicaAt(r, at, down);
  }
}

struct AgentShape {
  double rate = kRate;
  size_t agents = kAgents;
  bool faults = true;
};

struct AgentOutcome {
  RunResult result;
  std::vector<std::string> outputs;
  std::map<std::string, uint32_t> executions;
  uint64_t failovers = 0;
  uint64_t divergences = 0;
};

AgentOutcome RunAgentsAt(uint64_t seed, const AgentShape& shape,
                         const RunOptions& mode) {
  AgentOutcome out;
  BenchTrace* trace = mode.trace;
  RunResult& result = out.result;
  double setup_start = CpuSeconds();
  Simulator sim;
  FaultPlan faults(seed);
  AgentRun run;
  run.trace = trace;
  std::vector<SymphonyServer*> incarnations;
  std::vector<symphony::TraceRecorder*> recorders;
  ClusterOptions options;
  options.replicas = kReplicas;
  options.routing = symphony::RoutingPolicy::kLeastLoaded;
  options.enable_recovery = true;
  options.checkpoint_journals = true;
  // Publish the preamble as soon as one replica has built it, so the
  // others warm-import it through the store instead of prefilling it.
  options.share_min_opens = 1;
  options.ctrl.enabled = true;
  options.server.fault_plan = &faults;
  if (trace != nullptr) {
    options.server.trace = trace->NewRecorder();  // Cluster-level events.
    for (size_t r = 0; r < kReplicas; ++r) {
      recorders.push_back(trace->NewRecorder());
    }
  }
  options.configure_replica = [&run, &incarnations, &recorders](
                                  SymphonyServer& server, size_t index) {
    if (!server.tools().Register(SearchTool(&run)).ok()) {
      std::abort();
    }
    if (!recorders.empty()) {
      server.device().set_trace(recorders[index]);
      server.runtime().set_trace(recorders[index]);
    }
    incarnations.push_back(&server);
  };
  run.vocab = options.server.model.vocab_size;
  run.preamble = WordTokens(0x7001 ^ seed, kPreambleTokens, run.vocab);
  run.records.resize(shape.agents);
  run.ids.resize(shape.agents);
  run.plans.resize(shape.agents);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xa6e7);
  SimTime when = kFirstArrival;
  for (size_t i = 0; i < shape.agents; ++i) {
    when += symphony::DurationFromSeconds(rng.NextExponential(shape.rate));
    AgentPlan& plan = run.plans[i];
    plan.task = WordTokens(
        rng.NextU64(), kTaskTokensMin + rng.NextBounded(kTaskTokensSpread + 1),
        run.vocab);
    RequestRecord& rec = run.records[i];
    rec.arrival = when;
    rec.warmup = when < kWarmup;
    // The task, each turn's decode inputs, and every tool result but the
    // last (fed with the turn's last decoded token).
    rec.work_tokens = plan.task.size();
    for (uint32_t turn = 0; turn < kTurns; ++turn) {
      plan.decode[turn] =
          kDecodeTokensMin + static_cast<uint32_t>(
                                 rng.NextBounded(kDecodeTokensSpread + 1));
      plan.result[turn] =
          kResultTokensMin + static_cast<uint32_t>(
                                 rng.NextBounded(kResultTokensSpread + 1));
      rec.work_tokens += plan.decode[turn] - 1;
      if (turn + 1 < kTurns) {
        rec.work_tokens += plan.result[turn] + 1;
      }
    }
  }
  SimTime last_arrival = when;
  if (shape.faults) {
    ArmCrashes(faults, seed, kWarmup, last_arrival);
  }
  SymphonyCluster cluster(&sim, options);
  sim.ScheduleAt(0, [&cluster, &run] {
    cluster.Launch("preamble", "", BuildPreamble(&run));
  });
  for (size_t i = 0; i < shape.agents; ++i) {
    sim.ScheduleAt(run.records[i].arrival, [&cluster, &run, &sim, i] {
      run.ids[i] = cluster.Launch(
          "agent", "", MakeAgent(&run, i), [&run, &sim, i](LipId) {
            RequestRecord& r = run.records[i];
            StampOnce(&r.finished, sim.now());
            if (r.outcome == Outcome::kPending) {
              r.outcome = Outcome::kFailed;
            }
            ++run.finished;
          });
    });
  }
  // Prefix sharing pass while agents are outstanding (the cluster's own
  // periodic chain stops whenever no LIP is live, which an open loop hits).
  StartPeriodic(
      &sim, kSharePeriod, [&run] { return run.finished < run.records.size(); },
      [&cluster] { (void)cluster.SharePrefixes(); });
  if (trace != nullptr) {
    StartPeriodic(
        &sim, kSamplePeriod,
        [&run] { return run.finished < run.records.size(); },
        [&] {
          std::vector<SymphonyServer*> servers;
          for (size_t r = 0; r < cluster.replica_count(); ++r) {
            servers.push_back(&cluster.replica(r));
          }
          SampleLoad(trace, sim.now(), servers);
        });
  }
  result.setup_s = CpuSeconds() - setup_start;
  if (mode.setup_only) {
    return out;
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
  for (SymphonyServer* s : incarnations) {
    servers.Add(*s);
  }
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  ClusterLayers cl;
  cl.replicas = kReplicas;
  cl.net_transfers = snap.net_transfers;
  cl.net_payload_bytes = snap.net_payload_bytes;
  cl.store_published_bytes = snap.store.published_bytes;
  cl.store_deduped_bytes = snap.store.deduped_bytes;
  cl.store_fetched_bytes = snap.store.fetched_bytes;
  cl.warm_imports = snap.warm_imports;
  cl.failovers = snap.failovers;
  cl.checkpoints = snap.checkpoints;
  cl.ship_bytes = snap.ship_bytes;
  cl.heartbeats_sent = snap.ctrl.heartbeats_sent;
  cl.false_suspicions = snap.ctrl.false_suspicions;
  if (snap.ctrl.dead_declared > 0) {
    cl.detection_ms = symphony::ToMillis(snap.ctrl.detection_age_total) /
                      static_cast<double>(snap.ctrl.dead_declared);
  }
  result.layers = CollectLayers(
      result, servers, cl,
      static_cast<double>(run.hits) / static_cast<double>(shape.agents), trace);
  result.fingerprint = Fingerprint(run.records) ^
                       static_cast<uint64_t>(servers.busy) ^ servers.batches ^
                       snap.ctrl.heartbeats_sent;
  for (const SymphonyCluster::ClusterLip& id : run.ids) {
    out.outputs.push_back(cluster.Output(id));
  }
  out.executions = std::move(run.executions);
  out.failovers = snap.failovers;
  out.divergences = std::max(servers.divergences, snap.replay_divergences);
  if (trace != nullptr) {
    trace->KeepRecords(run.records);
  }
  return out;
}

// Outputs equal a fault-free run of the same seed; every tool call of that
// run executed here too, and beyond it only the calls in flight at a crash
// (at most one per failed-over agent) ran a second time.
std::string CheckAgainstReference(uint64_t seed, const AgentShape& shape,
                                  const AgentOutcome& faulted) {
  if (faulted.divergences != 0) {
    return "replay diverged " + std::to_string(faulted.divergences) + " times";
  }
  AgentShape clean = shape;
  clean.faults = false;
  AgentOutcome ref = RunAgentsAt(seed, clean, RunOptions{});
  if (ref.result.summary.succeeded != ref.result.summary.offered ||
      faulted.result.summary.succeeded != faulted.result.summary.offered) {
    return "not every agent completed";
  }
  for (size_t i = 0; i < ref.outputs.size(); ++i) {
    if (ref.outputs[i] != faulted.outputs[i]) {
      return "agent " + std::to_string(i) +
             " output differs from the fault-free run";
    }
  }
  uint64_t extra = 0;
  for (const auto& [args, count] : ref.executions) {
    auto it = faulted.executions.find(args);
    if (count != 1 || it == faulted.executions.end()) {
      return "tool call " + args + " not executed exactly once";
    }
    extra += it->second - 1;
  }
  if (faulted.executions.size() != ref.executions.size() ||
      extra > faulted.failovers) {
    return "tool executions differ from the fault-free run";
  }
  return "";
}

}  // namespace

RunResult RunAgentFailover(uint64_t seed, const RunOptions& options) {
  AgentShape shape;
  AgentOutcome out = RunAgentsAt(seed, shape, options);
  if (options.check && !options.setup_only) {
    out.result.check_error = CheckAgainstReference(seed, shape, out);
  }
  return std::move(out.result);
}

void CalibrateAgentFailover() {
  std::printf("agent_failover calibration (seed 1, no faults)\n");
  AgentOutcome idle = RunAgentsAt(1, AgentShape{0.2, 40, false}, RunOptions{});
  const Summary& u = idle.result.summary;
  std::printf("  unloaded: ttft p50 %.3f ms  tbt p50 %.3f ms  e2e p50 %.3f "
              "ms\n",
              u.ttft_p50.value, u.tbt_p50.value, u.e2e_p50.value);
  for (double rate : {8.0, 12.0, 16.0, 24.0, 32.0, 48.0}) {
    AgentOutcome r =
        RunAgentsAt(1, AgentShape{rate, 1500, false}, RunOptions{});
    const Summary& s = r.result.summary;
    std::printf("  rate %.0f/s: completed/s %.3f  util %.3f  ttft p99 %.1f  "
                "tbt p99 %.1f  e2e p50 %.1f p99 %.1f ms\n",
                rate,
                static_cast<double>(s.succeeded) /
                    symphony::ToSeconds(r.result.makespan),
                LayerValue(r.result.layers, "gpu.utilization"),
                s.ttft_p99.value, s.tbt_p99.value, s.e2e_p50.value,
                s.e2e_p99.value);
  }
}

}  // namespace symbench
