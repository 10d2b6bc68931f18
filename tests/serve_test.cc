// Integration tests for SymphonyServer: full LIPs exercising pred + KVFS +
// tools + scheduling through the composed public API, including the
// Figure 2 program shape (parallel generation over a forked prefix) and the
// §4.3 offload-on-I/O policy.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/decode/samplers.h"
#include "src/serve/server.h"

namespace symphony {
namespace {

ServerOptions TinyOptions() {
  ServerOptions options;
  options.model = ModelConfig::Tiny();
  return options;
}

TEST(ServerTest, QuickstartGreedyGeneration) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  std::string output;
  server.Launch("quickstart", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3");
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Argmax();
    for (int i = 0; i < 8 && next != kEosToken; ++i) {
      output += ctx.tokenizer().TokenToString(next) + " ";
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
      if (!d.ok()) {
        co_return;
      }
      next = d->back().Argmax();
    }
    co_return;
  });
  sim.Run();
  EXPECT_FALSE(output.empty());
}

TEST(ServerTest, GenerationIsReproducible) {
  auto run_once = [] {
    Simulator sim;
    SymphonyServer server(&sim, TinyOptions());
    std::string output;
    server.Launch("repro", [&](LipContext& ctx) -> Task {
      KvHandle kv = *ctx.kv_tmp();
      std::vector<TokenId> prompt = ctx.tokenizer().Encode("w5 w6");
      StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
      if (!dists.ok()) {
        co_return;
      }
      SamplerConfig cfg;
      cfg.temperature = 0.8;
      TokenId next = SampleToken(dists->back(), cfg, ctx.uniform());
      for (int i = 0; i < 10 && next != kEosToken; ++i) {
        output += ctx.tokenizer().TokenToString(next);
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
        if (!d.ok()) {
          co_return;
        }
        next = SampleToken(d->back(), cfg, ctx.uniform());
      }
      co_return;
    });
    sim.Run();
    return output;
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ServerTest, Figure2ParallelGenerationSharedPrefix) {
  // The paper's example program: load a shared prefix, fork it per query,
  // generate in parallel threads, join.
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());

  int completed_branches = 0;
  uint64_t cow_copies_at_end = 0;
  server.Launch("fig2", [&](LipContext& ctx) -> Task {
    // Build the "system prompt" KV once.
    KvHandle prefix = *ctx.kv_create("/kv/sys_msg");
    std::vector<TokenId> sys = ctx.tokenizer().Encode("w0 w1 w2 w3 w4 w5");
    (void)co_await ctx.pred(prefix, sys);

    std::vector<std::vector<TokenId>> suffixes = {
        ctx.tokenizer().Encode("w10"), ctx.tokenizer().Encode("w11"),
        ctx.tokenizer().Encode("w12")};
    for (const std::vector<TokenId>& suffix : suffixes) {
      ctx.spawn([&, suffix](LipContext& inner) -> Task {
        StatusOr<KvHandle> kv = inner.kv_fork(prefix);
        if (!kv.ok()) {
          co_return;
        }
        StatusOr<std::vector<Distribution>> dists =
            co_await inner.pred(*kv, suffix);
        if (!dists.ok()) {
          co_return;
        }
        TokenId t = dists->back().Argmax();
        for (int step = 0; step < 6 && t != kEosToken; ++step) {
          StatusOr<std::vector<Distribution>> d = co_await inner.pred1(*kv, t);
          if (!d.ok()) {
            co_return;
          }
          t = d->back().Argmax();
        }
        ++completed_branches;
        co_return;
      });
    }
    co_await ctx.join_all();
    cow_copies_at_end = server.kvfs().pool().stats().cow_copies;
    co_return;
  });
  sim.Run();
  EXPECT_EQ(completed_branches, 3);
  // Branches shared the prefix pages; only divergent tails were copied.
  EXPECT_GT(cow_copies_at_end, 0u);
  EXPECT_LE(cow_copies_at_end, 3u);
}

TEST(ServerTest, ToolCallsRunServerSide) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Calculator("calc", Millis(2))).ok());
  std::string result;
  SimTime finished_at = 0;
  server.Launch("agent", [&](LipContext& ctx) -> Task {
    StatusOr<std::string> out = co_await ctx.call_tool("calc", "21 * 2");
    if (out.ok()) {
      result = *out;
    }
    finished_at = ctx.now();
    co_return;
  });
  sim.Run();
  EXPECT_EQ(result, "42");
  EXPECT_GE(finished_at, Millis(2));
}

TEST(ServerTest, SlowToolIoTriggersKvOffload) {
  Simulator sim;
  ServerOptions options = TinyOptions();
  options.offload_kv_on_tool_io = true;
  options.min_io_for_offload = Millis(5);
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("slow", Millis(50))).ok());

  server.Launch("io", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2 w3 w4");
    (void)co_await ctx.pred(kv, prompt);
    (void)co_await ctx.call_tool("slow", "x");
    // KV was offloaded during the call; the next pred restores it.
    (void)co_await ctx.pred1(kv, 260);
    co_return;
  });
  sim.Run();
  EXPECT_GT(server.kvfs().stats().offloaded_pages, 0u);
  EXPECT_GT(server.kvfs().stats().restored_pages, 0u);
}

TEST(ServerTest, FastToolIoDoesNotOffload) {
  Simulator sim;
  ServerOptions options = TinyOptions();
  options.min_io_for_offload = Millis(5);
  SymphonyServer server(&sim, options);
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Echo("fast", Micros(100))).ok());
  server.Launch("io", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    std::vector<TokenId> prompt = ctx.tokenizer().Encode("w1 w2");
    (void)co_await ctx.pred(kv, prompt);
    (void)co_await ctx.call_tool("fast", "x");
    co_return;
  });
  sim.Run();
  EXPECT_EQ(server.kvfs().stats().offloaded_pages, 0u);
}

TEST(ServerTest, MultiAgentIpcPipeline) {
  // Two LIPs cooperating through a channel: a "researcher" fetches and a
  // "writer" consumes, all server-side.
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  ASSERT_TRUE(server.tools().Register(ToolRegistry::Lookup("fetch", Millis(10))).ok());

  std::string writer_saw;
  server.Launch("researcher", [&](LipContext& ctx) -> Task {
    StatusOr<std::string> doc = co_await ctx.call_tool("fetch", "topic");
    // Named lvalue: GCC 12 double-destroys conditional-operator temporaries
    // inside a co_await operand (use-after-free in the delivered bytes).
    std::string findings = doc.ok() ? *doc : "error";
    co_await ctx.send("findings", std::move(findings));
    co_return;
  });
  server.Launch("writer", [&](LipContext& ctx) -> Task {
    writer_saw = co_await ctx.recv("findings");
    co_return;
  });
  sim.Run();
  EXPECT_EQ(writer_saw.substr(0, 3), "doc");
}

TEST(ServerTest, NamedKvPersistsAcrossLips) {
  // A LIP builds a named KV file; a later LIP reuses it without recompute.
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());

  uint64_t prefill_batches = 0;
  server.Launch("builder", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_create("/cache/doc", kModeShared);
    std::vector<TokenId> doc = ctx.tokenizer().Encode("w1 w2 w3 w4 w5 w6 w7 w8");
    (void)co_await ctx.pred(kv, doc);
    (void)ctx.kv_close(kv);
    co_return;
  });
  sim.Run();
  prefill_batches = server.device().stats().batches;

  uint64_t reuse_len = 0;
  server.Launch("reuser", [&](LipContext& ctx) -> Task {
    StatusOr<KvHandle> shared = ctx.kv_open("/cache/doc");
    if (!shared.ok()) {
      co_return;
    }
    StatusOr<KvHandle> mine = ctx.kv_fork(*shared);
    if (!mine.ok()) {
      co_return;
    }
    reuse_len = *ctx.kv_len(*mine);
    (void)co_await ctx.pred1(*mine, 260);
    co_return;
  });
  sim.Run();
  EXPECT_EQ(reuse_len, 8u);
  // Reuse needed exactly one more batch (the single decode step).
  EXPECT_EQ(server.device().stats().batches, prefill_batches + 1);
}

TEST(ServerTest, ComponentStatsCountOneRun) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  server.Launch("work", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261);
    co_return;
  });
  sim.Run();
  EXPECT_EQ(server.runtime().stats().preds_submitted, 1u);
  EXPECT_EQ(server.runtime().stats().lips_completed, 1u);
  EXPECT_GT(server.device().Utilization(), 0.0);
  EXPECT_EQ(server.device().stats().batches, 1u);
}

TEST(ServerTest, AclIsolatesTenants) {
  Simulator sim;
  SymphonyServer server(&sim, TinyOptions());
  Status intruder_status;
  server.Launch("tenant-a", [&](LipContext& ctx) -> Task {
    (void)ctx.kv_create("/private/a");  // kModePrivate by default.
    co_return;
  });
  sim.Run();
  server.Launch("tenant-b", [&](LipContext& ctx) -> Task {
    StatusOr<KvHandle> stolen = ctx.kv_open("/private/a");
    intruder_status = stolen.status();
    co_return;
  });
  sim.Run();
  EXPECT_EQ(intruder_status.code(), StatusCode::kPermissionDenied);
}

}  // namespace
}  // namespace symphony
