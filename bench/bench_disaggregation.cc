// Stall-free scheduling: chunked prefill + decode-priority packing, and
// cluster prefill/decode disaggregation.
//
// Part 1 (single server): a 50/50 mix of chat decode streams and 3000-token
// RAG prefills sweeps the prefill chunk size. Unchunked, every decode that
// lands behind a 3000-token prefill batch waits the full ~500ms (Llama-13B on
// A100); chunking bounds the batch a decode can get stuck behind to the chunk
// budget, at the price of a few extra kernel launches per prefill.
//
// Part 2 (cluster): the same mix on four replicas — all-unified, all-unified
// with chunking, and 2 prefill + 2 decode (disaggregated: hinted launches
// prefill on P replicas, then migrate to a D replica through the snapshot
// store). Decode replicas never run a fresh multi-thousand-token prefill, so
// decode tail latency drops below even the chunked-unified config.
//
// Every row is also emitted as a JSON line (prefix "JSON ") for scripting.
// The binary exits nonzero when the headline properties regress:
//   * some chunked config improves decode p99 >= 5x over unchunked while
//     losing <= 10% prefill throughput;
//   * chunked decode p99 does not regress above unified;
//   * 2P+2D beats 4-unified on decode p99.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/cluster.h"

namespace symphony {
namespace {

constexpr int kChatLips = 6;
constexpr int kChatDecodes = 200;
constexpr int kRagLips = 6;
constexpr int kRagDecodes = 16;
constexpr uint64_t kDocTokens = 3000;
constexpr SimDuration kRagStagger = Millis(250);
constexpr SimDuration kRagStart = Millis(50);
// The cluster part offers 4x the single-replica load, so an all-unified
// fleet sees continuous prefill traffic on every replica — the regime
// disaggregation is for. (Under light load any config keeps decodes clean.)
constexpr int kClusterChat = 12;
constexpr int kClusterRag = 16;
constexpr SimDuration kClusterRagStagger = Millis(100);

std::vector<TokenId> SyntheticTokens(uint64_t n, uint64_t stream) {
  std::vector<TokenId> tokens(n);
  for (uint64_t i = 0; i < n; ++i) {
    tokens[i] = static_cast<TokenId>(1 + (i * 13 + stream * 7) % 299);
  }
  return tokens;
}

// A chat turn: short prompt, then a long greedy decode stream with each
// inter-token latency sampled.
LipProgram ChatProgram(int id, int decodes, SampleSeries* decode_ms,
                       uint64_t* decode_tokens) {
  return [id, decodes, decode_ms, decode_tokens](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d =
        co_await ctx.pred(kv, SyntheticTokens(64, static_cast<uint64_t>(id)));
    if (!d.ok()) {
      co_return;
    }
    TokenId next = d->back().Argmax();
    for (int s = 0; s < decodes; ++s) {
      SimTime t0 = ctx.now();
      StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
      if (!dd.ok()) {
        co_return;
      }
      decode_ms->Add(ToMillis(ctx.now() - t0));
      ++*decode_tokens;
      next = dd->back().Argmax();
    }
    co_return;
  };
}

// A RAG request: 3000-token document prefill, then a short answer. The
// prefill completion time is sampled once per request id — a LIP that is
// migrated mid-life (disaggregation handoff) re-runs its program under
// replay, so the guard keeps the journal-served re-execution from recording
// a second, near-zero sample.
LipProgram RagProgram(int id, SimTime launched_at, SampleSeries* prefill_ms,
                      std::vector<char>* prefill_recorded,
                      SimTime* last_prefill_done, uint64_t* decode_tokens) {
  return [id, launched_at, prefill_ms, prefill_recorded, last_prefill_done,
          decode_tokens](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d = co_await ctx.pred(
        kv, SyntheticTokens(kDocTokens, 100 + static_cast<uint64_t>(id)));
    if (!d.ok()) {
      co_return;
    }
    if (!(*prefill_recorded)[id]) {
      (*prefill_recorded)[id] = 1;
      prefill_ms->Add(ToMillis(ctx.now() - launched_at));
      *last_prefill_done = std::max(*last_prefill_done, ctx.now());
    }
    TokenId next = d->back().Argmax();
    for (int s = 0; s < kRagDecodes; ++s) {
      StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
      if (!dd.ok()) {
        co_return;
      }
      ++*decode_tokens;
      next = dd->back().Argmax();
    }
    co_return;
  };
}

struct MixResult {
  double decode_p50_ms = 0.0;
  double decode_p99_ms = 0.0;
  double prefill_mean_ms = 0.0;
  double prefill_tok_s = 0.0;  // Prefill tokens / prefill phase makespan.
  double goodput_tok_s = 0.0;  // Generated (decode) tokens / total duration.
  uint64_t prefill_chunks = 0;
  uint64_t handoffs = 0;
  double queue_wait_p99_ms = 0.0;
};

// ---- Part 1: single-server chunk-size sweep ------------------------------

MixResult RunSingleServerMix(uint64_t chunk) {
  Simulator sim;
  ServerOptions options;  // Llama-13B on A100.
  options.scheduler.prefill_chunk_tokens = chunk;
  SymphonyServer server(&sim, options);

  SampleSeries decode_ms;
  SampleSeries prefill_ms;
  std::vector<char> prefill_recorded(kRagLips, 0);
  SimTime last_prefill_done = 0;
  uint64_t decode_tokens = 0;
  for (int c = 0; c < kChatLips; ++c) {
    sim.ScheduleAt(Millis(5) * c, [&, c] {
      server.Launch("chat",
                    ChatProgram(c, kChatDecodes, &decode_ms, &decode_tokens));
    });
  }
  for (int r = 0; r < kRagLips; ++r) {
    SimTime at = kRagStart + kRagStagger * r;
    sim.ScheduleAt(at, [&, r, at] {
      server.Launch("rag", RagProgram(r, at, &prefill_ms, &prefill_recorded,
                                      &last_prefill_done, &decode_tokens));
    });
  }
  sim.Run();

  MixResult result;
  result.decode_p50_ms = decode_ms.Percentile(0.5);
  result.decode_p99_ms = decode_ms.Percentile(0.99);
  result.prefill_mean_ms = prefill_ms.mean();
  double prefill_span_s = ToMillis(last_prefill_done - kRagStart) / 1000.0;
  result.prefill_tok_s =
      static_cast<double>(kRagLips * kDocTokens) / prefill_span_s;
  result.goodput_tok_s =
      static_cast<double>(decode_tokens) / (ToMillis(sim.now()) / 1000.0);
  result.prefill_chunks = server.scheduler().stats().prefill_chunks;
  result.queue_wait_p99_ms = server.scheduler().queue_waits_ms().count() > 0
                                 ? server.scheduler().queue_waits_ms().Percentile(0.99)
                                 : 0.0;
  return result;
}

bool ChunkSweep() {
  const std::vector<uint64_t> chunks = {0, 1024, 512, 256, 128};
  BenchTable table({"chunk", "dec_p50_ms", "dec_p99_ms", "p99_speedup",
                    "prefill_s", "prefill_tok/s", "tput_loss%", "goodput_tok/s",
                    "chunks", "qwait_p99_ms"});
  std::vector<MixResult> results;
  for (uint64_t chunk : chunks) {
    results.push_back(RunSingleServerMix(chunk));
  }
  const MixResult& base = results[0];
  bool any_headline = false;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const MixResult& r = results[i];
    double speedup = r.decode_p99_ms > 0 ? base.decode_p99_ms / r.decode_p99_ms : 0;
    double loss = 100.0 * (1.0 - r.prefill_tok_s / base.prefill_tok_s);
    if (i > 0 && speedup >= 5.0 && loss <= 10.0) {
      any_headline = true;
    }
    table.AddRow({std::to_string(chunks[i]), Fmt(r.decode_p50_ms),
                  Fmt(r.decode_p99_ms), Fmt(speedup), Fmt(r.prefill_mean_ms / 1000.0),
                  Fmt(r.prefill_tok_s, 0), Fmt(loss, 1), Fmt(r.goodput_tok_s, 1),
                  std::to_string(r.prefill_chunks), Fmt(r.queue_wait_p99_ms)});
    std::printf(
        "JSON {\"bench\":\"disaggregation\",\"part\":\"chunk_sweep\","
        "\"chunk\":%llu,\"decode_p50_ms\":%.3f,\"decode_p99_ms\":%.3f,"
        "\"p99_speedup\":%.2f,\"prefill_mean_s\":%.3f,\"prefill_tok_s\":%.1f,"
        "\"prefill_tput_loss_pct\":%.2f,\"goodput_tok_s\":%.2f,"
        "\"prefill_chunks\":%llu,\"queue_wait_p99_ms\":%.3f}\n",
        static_cast<unsigned long long>(chunks[i]), r.decode_p50_ms,
        r.decode_p99_ms, speedup, r.prefill_mean_ms / 1000.0, r.prefill_tok_s,
        loss, r.goodput_tok_s,
        static_cast<unsigned long long>(r.prefill_chunks),
        r.queue_wait_p99_ms);
  }
  table.Print(
      "Part 1: chunk-size sweep, 6 chat decode streams vs 6x3000-token "
      "prefills on one replica (Llama-13B/A100)");
  if (!any_headline) {
    std::printf(
        "FAIL: no chunked config reached >=5x decode p99 improvement with "
        "<=10%% prefill throughput loss\n");
  }
  return any_headline;
}

// ---- Part 2: cluster configurations --------------------------------------

MixResult RunClusterMix(bool chunked, bool disagg) {
  Simulator sim;
  ClusterOptions options;
  options.replicas = 4;
  options.routing = RoutingPolicy::kLeastLoaded;
  options.enable_recovery = true;  // Identical overhead across configs.
  if (disagg) {
    options.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                     ReplicaRole::kDecode, ReplicaRole::kDecode};
    options.disagg_min_prefill_tokens = 512;
    options.checkpoint_journals = true;  // Ship checkpoint ref + suffix.
  }
  if (chunked) {
    options.server.scheduler.prefill_chunk_tokens = 512;
  }
  SymphonyCluster cluster(&sim, options);

  SampleSeries decode_ms;
  SampleSeries prefill_ms;
  std::vector<char> prefill_recorded(kClusterRag, 0);
  SimTime last_prefill_done = 0;
  uint64_t decode_tokens = 0;
  for (int c = 0; c < kClusterChat; ++c) {
    sim.ScheduleAt(Millis(3) * c, [&, c] {
      cluster.Launch("chat", "",
                     ChatProgram(c, kChatDecodes, &decode_ms, &decode_tokens));
    });
  }
  for (int r = 0; r < kClusterRag; ++r) {
    SimTime at = kRagStart + kClusterRagStagger * r;
    sim.ScheduleAt(at, [&, r, at] {
      cluster.Launch("rag", "", /*prefill_hint_tokens=*/kDocTokens,
                     RagProgram(r, at, &prefill_ms, &prefill_recorded,
                                &last_prefill_done, &decode_tokens));
    });
  }
  sim.Run();

  MixResult result;
  result.decode_p50_ms = decode_ms.Percentile(0.5);
  result.decode_p99_ms = decode_ms.Percentile(0.99);
  result.prefill_mean_ms = prefill_ms.mean();
  double prefill_span_s = ToMillis(last_prefill_done - kRagStart) / 1000.0;
  result.prefill_tok_s =
      static_cast<double>(kClusterRag * kDocTokens) / prefill_span_s;
  result.goodput_tok_s =
      static_cast<double>(decode_tokens) / (ToMillis(sim.now()) / 1000.0);
  SymphonyCluster::ClusterSnapshot snap = cluster.Snapshot();
  result.prefill_chunks = snap.prefill_chunks;
  result.handoffs = snap.disagg_handoffs;
  result.queue_wait_p99_ms = snap.queue_wait_p99_ms;
  return result;
}

bool ClusterComparison() {
  struct Config {
    const char* name;
    bool chunked;
    bool disagg;
  };
  const std::vector<Config> configs = {
      {"4xunified", false, false},
      {"4xunified+chunk", true, false},
      {"2P+2D+chunk", true, true},
  };
  BenchTable table({"config", "dec_p50_ms", "dec_p99_ms", "prefill_s",
                    "prefill_tok/s", "goodput_tok/s", "handoffs",
                    "qwait_p99_ms"});
  std::vector<MixResult> results;
  for (const Config& config : configs) {
    results.push_back(RunClusterMix(config.chunked, config.disagg));
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    const MixResult& r = results[i];
    table.AddRow({configs[i].name, Fmt(r.decode_p50_ms), Fmt(r.decode_p99_ms),
                  Fmt(r.prefill_mean_ms / 1000.0), Fmt(r.prefill_tok_s, 0),
                  Fmt(r.goodput_tok_s, 1), std::to_string(r.handoffs),
                  Fmt(r.queue_wait_p99_ms)});
    std::printf(
        "JSON {\"bench\":\"disaggregation\",\"part\":\"cluster\","
        "\"config\":\"%s\",\"decode_p50_ms\":%.3f,\"decode_p99_ms\":%.3f,"
        "\"prefill_mean_s\":%.3f,\"prefill_tok_s\":%.1f,"
        "\"goodput_tok_s\":%.2f,\"handoffs\":%llu,"
        "\"queue_wait_p99_ms\":%.3f}\n",
        configs[i].name, r.decode_p50_ms, r.decode_p99_ms,
        r.prefill_mean_ms / 1000.0, r.prefill_tok_s, r.goodput_tok_s,
        static_cast<unsigned long long>(r.handoffs), r.queue_wait_p99_ms);
  }
  table.Print(
      "Part 2: 4-replica cluster, unified vs chunked vs disaggregated "
      "(2 prefill + 2 decode), same mixed workload");
  bool ok = true;
  if (results[1].decode_p99_ms > results[0].decode_p99_ms) {
    std::printf("FAIL: chunked decode p99 (%.2fms) above unified (%.2fms)\n",
                results[1].decode_p99_ms, results[0].decode_p99_ms);
    ok = false;
  }
  if (results[2].decode_p99_ms >= results[0].decode_p99_ms) {
    std::printf("FAIL: 2P+2D decode p99 (%.2fms) does not beat 4xunified "
                "(%.2fms)\n",
                results[2].decode_p99_ms, results[0].decode_p99_ms);
    ok = false;
  }
  if (results[2].handoffs == 0) {
    std::printf("FAIL: disaggregated config performed no handoffs\n");
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace symphony

int main() {
  std::printf(
      "bench_disaggregation: stall-free scheduling — chunked prefill, "
      "decode-priority packing, prefill/decode disaggregation\n");
  bool ok = symphony::ChunkSweep();
  ok = symphony::ClusterComparison() && ok;
  if (!ok) {
    std::printf("\nbench_disaggregation: REGRESSION (see FAIL lines above)\n");
    return 1;
  }
  std::printf("\nbench_disaggregation: all gates passed\n");
  return 0;
}
