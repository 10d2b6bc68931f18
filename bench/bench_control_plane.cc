// Control plane benchmark (src/ctrl).
//
// Part 1 (detection & recovery vs heartbeat period): a seeded FaultPlan
// crash kills a replica mid-run; the detector's only signal is the missing
// heartbeats. Sweeping the heartbeat period (with the suspect/lease/declare
// thresholds scaled in proportion) shows the classic trade: a faster cadence
// detects and recovers sooner but spends more control traffic. Reports the
// declare latency (crash -> dead declared), the sweep's own detection age,
// recovery MTTR (completion delta vs the fault-free run), heartbeat volume,
// and whether the recovered output stayed bit-identical.
//
// Part 2 (partition handling): the same detector faced with silence that is
// NOT a crash. A short blip (< lease) must cost only a suspicion; a long
// window forces the full false-death path — source self-fence, declare,
// failover, readmission at the bumped epoch — and the exactly-once counter
// shows how many tool calls re-executed beyond the fault-free run.
//
// Part 3 (elastic reaction): a submit flood over admission caps trips the
// scaling loop. Sweeping the evaluate period shows how quickly the fleet
// grows after the first shed and how much of the burst each cadence saves.
//
// Every row is also emitted as a JSON line (prefix "JSON ") for scripting.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/cluster.h"

namespace symphony {
namespace {

// Same multi-turn tool-calling agent as the ctrl tests: samples tokens,
// calls a tool, sleeps, emits — captured by value so replay can re-run it.
LipProgram MakeAgent(int turns) {
  return [turns](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Sample(ctx.uniform(), 0.8);
    for (int turn = 0; turn < turns; ++turn) {
      for (int i = 0; i < 6 && next != kEosToken; ++i) {
        ctx.emit(ctx.tokenizer().TokenToString(next) + " ");
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = d->back().Sample(ctx.uniform(), 0.8);
      }
      StatusOr<std::string> out = co_await ctx.call_tool(
          "calc", std::to_string(turn) + " + " + std::to_string(next));
      if (out.ok()) {
        ctx.emit("[" + *out + "]");
      }
      co_await ctx.sleep(Millis(1));
      if (next == kEosToken) {
        break;
      }
    }
    co_return;
  };
}

// Counts real handler executions: replay serves journaled results verbatim,
// so executions beyond the fault-free run measure double execution.
ToolSpec CountingTool(uint64_t* executions) {
  ToolSpec spec;
  spec.name = "calc";
  spec.description = "side-effect-counting calculator";
  spec.handler = [executions](const std::string& args, Rng&) {
    ++*executions;
    ToolInvocation out;
    out.latency = Millis(2);
    out.output = "v=" + args;
    return out;
  };
  return spec;
}

// Detector scaled around a heartbeat period: suspect after ~2 missed beats,
// self-fence at 3.5 periods, declare dead at 5.
ControlPlaneOptions ScaledCtrl(SimDuration heartbeat_period) {
  ControlPlaneOptions ctrl;
  ctrl.enabled = true;
  ctrl.heartbeat_period = heartbeat_period;
  ctrl.suspect_after = heartbeat_period * 2;
  ctrl.lease = heartbeat_period * 7 / 2;
  ctrl.declare_dead_after = heartbeat_period * 5;
  ctrl.sweep_period = heartbeat_period;
  return ctrl;
}

ClusterOptions CtrlCluster(uint64_t seed, size_t replicas,
                           const ControlPlaneOptions& ctrl,
                           uint64_t* executions) {
  ClusterOptions options;
  options.replicas = replicas;
  options.routing = RoutingPolicy::kRoundRobin;
  options.server.model = ModelConfig::Tiny();
  options.server.runtime.seed = seed;
  options.enable_recovery = true;
  options.ctrl = ctrl;
  options.configure_replica = [executions](SymphonyServer& server, size_t) {
    if (!server.tools().Register(CountingTool(executions)).ok()) {
      std::abort();
    }
  };
  return options;
}

struct CtrlRun {
  std::string output;
  SimTime finish = 0;
  uint64_t tool_executions = 0;
  SymphonyCluster::ClusterSnapshot snap;
};

CtrlRun RunAgents(uint64_t seed, size_t replicas, int agents, int turns,
                  const ControlPlaneOptions& ctrl,
                  const std::function<void(FaultPlan&)>& arm = nullptr) {
  Simulator sim;
  FaultPlan plan(seed);
  if (arm) {
    arm(plan);
  }
  CtrlRun run;
  ClusterOptions options =
      CtrlCluster(seed, replicas, ctrl, &run.tool_executions);
  options.server.fault_plan = &plan;
  SymphonyCluster cluster(&sim, options);
  std::vector<SymphonyCluster::ClusterLip> ids;
  for (int i = 0; i < agents; ++i) {
    ids.push_back(
        cluster.Launch("agent" + std::to_string(i), "", MakeAgent(turns)));
  }
  sim.Run();
  for (const SymphonyCluster::ClusterLip& id : ids) {
    run.output += cluster.Output(id) + "|";
  }
  run.finish = sim.now();
  run.snap = cluster.Snapshot();
  return run;
}

// ---- Part 1: detection latency & MTTR vs heartbeat period ---------------

void DetectionSweep() {
  constexpr uint64_t kSeed = 71;
  BenchTable table({"hb_period_ms", "declare_latency_ms", "detect_age_ms",
                    "mttr_ms", "hb_sent", "bit_identical"});
  for (SimDuration hb : {Millis(1), Millis(2), Millis(4), Millis(8)}) {
    ControlPlaneOptions ctrl = ScaledCtrl(hb);
    CtrlRun baseline = RunAgents(kSeed, 2, /*agents=*/1, /*turns=*/8, ctrl);
    SimTime crash_at = baseline.finish * 2 / 5;
    CtrlRun crashed =
        RunAgents(kSeed, 2, 1, 8, ctrl,
                  [crash_at](FaultPlan& plan) {
                    plan.CrashReplicaAt(0, crash_at);
                  });
    const ControlPlaneStats& cs = crashed.snap.ctrl;
    double declare_ms =
        cs.last_dead_declared_at >= 0
            ? ToSeconds(cs.last_dead_declared_at - crash_at) * 1e3
            : -1.0;
    double age_ms =
        cs.dead_declared > 0
            ? ToSeconds(cs.detection_age_total) /
                  static_cast<double>(cs.dead_declared) * 1e3
            : -1.0;
    double mttr_ms = ToSeconds(crashed.finish - baseline.finish) * 1e3;
    bool identical = crashed.output == baseline.output;
    table.AddRow({Fmt(ToSeconds(hb) * 1e3, 0), Fmt(declare_ms),
                  Fmt(age_ms), Fmt(mttr_ms),
                  std::to_string(cs.heartbeats_sent),
                  identical ? "yes" : "NO"});
    std::printf(
        "JSON {\"bench\":\"control_plane\",\"part\":\"detection\","
        "\"hb_period_ms\":%.0f,\"declare_latency_ms\":%.3f,"
        "\"detect_age_ms\":%.3f,\"mttr_ms\":%.3f,\"heartbeats_sent\":%llu,"
        "\"dead_declared\":%llu,\"auto_failovers\":%llu,"
        "\"bit_identical\":%s}\n",
        ToSeconds(hb) * 1e3, declare_ms, age_ms, mttr_ms,
        static_cast<unsigned long long>(cs.heartbeats_sent),
        static_cast<unsigned long long>(cs.dead_declared),
        static_cast<unsigned long long>(cs.auto_failovers),
        identical ? "true" : "false");
  }
  table.Print(
      "seeded crash: detection latency & recovery MTTR vs heartbeat period");
}

// ---- Part 2: partition handling (suspicion vs false death) --------------

void PartitionSweep() {
  constexpr uint64_t kSeed = 72;
  ControlPlaneOptions ctrl = ScaledCtrl(Millis(2));  // lease = 7ms.
  CtrlRun baseline = RunAgents(kSeed, 3, /*agents=*/3, /*turns=*/8, ctrl);
  SimTime p_at = baseline.finish / 4;
  struct Case {
    const char* name;
    SimDuration window;
  };
  const Case kCases[] = {{"blip-6ms", Millis(6)}, {"window-25ms", Millis(25)}};
  BenchTable table({"partition", "suspicions", "self_fences", "dead_declared",
                    "failovers", "readmissions", "extra_tool_execs",
                    "bit_identical"});
  for (const Case& c : kCases) {
    CtrlRun cut = RunAgents(kSeed, 3, 3, 8, ctrl,
                            [p_at, &c](FaultPlan& plan) {
                              plan.AddPartition(0, 2, p_at, c.window);
                            });
    const ControlPlaneStats& cs = cut.snap.ctrl;
    uint64_t extra = cut.tool_executions - baseline.tool_executions;
    bool identical = cut.output == baseline.output;
    table.AddRow({c.name, std::to_string(cs.suspicions),
                  std::to_string(cs.self_fences),
                  std::to_string(cs.dead_declared),
                  std::to_string(cut.snap.failovers),
                  std::to_string(cs.readmissions), std::to_string(extra),
                  identical ? "yes" : "NO"});
    std::printf(
        "JSON {\"bench\":\"control_plane\",\"part\":\"partition\","
        "\"case\":\"%s\",\"window_ms\":%.0f,\"suspicions\":%llu,"
        "\"false_suspicions\":%llu,\"self_fences\":%llu,"
        "\"dead_declared\":%llu,\"failovers\":%llu,\"readmissions\":%llu,"
        "\"extra_tool_executions\":%llu,\"bit_identical\":%s}\n",
        c.name, ToSeconds(c.window) * 1e3,
        static_cast<unsigned long long>(cs.suspicions),
        static_cast<unsigned long long>(cs.false_suspicions),
        static_cast<unsigned long long>(cs.self_fences),
        static_cast<unsigned long long>(cs.dead_declared),
        static_cast<unsigned long long>(cut.snap.failovers),
        static_cast<unsigned long long>(cs.readmissions),
        static_cast<unsigned long long>(extra), identical ? "true" : "false");
  }
  std::printf("\npartition (0,2) at t=%.3fms in a 3-replica cluster; "
              "lease %.0fms, declare %.0fms\n",
              ToSeconds(p_at) * 1e3, ToSeconds(ctrl.lease) * 1e3,
              ToSeconds(ctrl.declare_dead_after) * 1e3);
  table.Print("partition silence: suspicion vs fenced false death");
}

// ---- Part 3: elastic scale-out reaction ---------------------------------

void ScalingSweep() {
  BenchTable table({"eval_period_ms", "reaction_ms", "sheds", "scale_outs",
                    "final_replicas", "accepted", "completed"});
  for (SimDuration eval : {Millis(2), Millis(4), Millis(8)}) {
    Simulator sim;
    uint64_t executions = 0;
    ClusterOptions options =
        CtrlCluster(73, /*replicas=*/1, ScaledCtrl(Millis(2)), &executions);
    options.routing = RoutingPolicy::kLeastLoaded;
    options.server.admission.enabled = true;
    options.server.admission.max_live_lips = 2;
    options.server.admission.max_queue = 1;
    options.ctrl.scaling.enabled = true;
    options.ctrl.scaling.min_replicas = 1;
    options.ctrl.scaling.max_replicas = 4;
    options.ctrl.scaling.evaluate_period = eval;
    options.ctrl.scaling.scale_out_on_sheds = 1;
    options.ctrl.scaling.scale_out_cooldown = eval * 2;
    options.ctrl.scaling.scale_in_load = 0.0;  // Growth only.
    SymphonyCluster cluster(&sim, options);
    uint64_t accepted = 0;
    auto submit_wave = [&cluster, &accepted](int count) {
      for (int i = 0; i < count; ++i) {
        SymphonyServer::LaunchSpec spec;
        spec.name = "burst";
        spec.program = MakeAgent(2);
        if (cluster.Submit(std::move(spec)).result.status.ok()) {
          ++accepted;
        }
      }
    };
    submit_wave(8);  // t=0: overflows the lone replica, sheds trip scaling.
    sim.ScheduleAt(Millis(12), [&] { submit_wave(4); });
    sim.Run();
    SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
    double reaction_ms = snap.ctrl.last_scale_out_at >= 0
                             ? ToSeconds(snap.ctrl.last_scale_out_at) * 1e3
                             : -1.0;
    table.AddRow({Fmt(ToSeconds(eval) * 1e3, 0), Fmt(reaction_ms),
                  std::to_string(snap.submit_sheds),
                  std::to_string(snap.ctrl.scale_outs),
                  std::to_string(cluster.replica_count()),
                  std::to_string(accepted),
                  std::to_string(snap.lips_completed)});
    std::printf(
        "JSON {\"bench\":\"control_plane\",\"part\":\"scaling\","
        "\"eval_period_ms\":%.0f,\"reaction_ms\":%.3f,\"sheds\":%llu,"
        "\"scale_outs\":%llu,\"final_replicas\":%zu,\"accepted\":%llu,"
        "\"completed\":%llu}\n",
        ToSeconds(eval) * 1e3, reaction_ms,
        static_cast<unsigned long long>(snap.submit_sheds),
        static_cast<unsigned long long>(snap.ctrl.scale_outs),
        cluster.replica_count(), static_cast<unsigned long long>(accepted),
        static_cast<unsigned long long>(snap.lips_completed));
  }
  std::printf("\nburst of 8 at t=0 over caps {live 2, queue 1}, "
              "+4 at t=12ms; last_scale_out_at is the reaction time\n");
  table.Print("submit flood: scale-out reaction vs evaluate period");
}

}  // namespace
}  // namespace symphony

int main() {
  std::printf(
      "bench_control_plane: detection, fenced recovery, elastic scaling\n");
  symphony::DetectionSweep();
  symphony::PartitionSweep();
  symphony::ScalingSweep();
  return 0;
}
