// Tests for the batch inference scheduler + simulated device, driven end to
// end through LIP programs: correctness of pred results (equivalence with
// direct model computation), position validation, batching behaviour, batch
// policies, and KV residency/transfer accounting.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/gpu/device.h"
#include "src/kvfs/kvfs.h"
#include "src/model/model.h"
#include "src/runtime/lip_context.h"
#include "src/runtime/runtime.h"
#include "src/sched/batch_policy.h"
#include "src/sched/inference_scheduler.h"
#include "src/sim/event_queue.h"

namespace symphony {
namespace {

class SchedTest : public ::testing::Test {
 protected:
  SchedTest() : SchedTest(std::make_unique<EagerPolicy>()) {}

  explicit SchedTest(std::unique_ptr<BatchPolicy> policy)
      : model_(ModelConfig::Tiny()),
        kvfs_(MakeKvfsOptions()),
        device_(&sim_, CostModel(ModelConfig::Tiny())),
        scheduler_(&sim_, &kvfs_, &model_, &device_, std::move(policy)),
        runtime_(&sim_, &kvfs_) {
    runtime_.set_pred_service(&scheduler_);
  }

  static KvfsOptions MakeKvfsOptions() {
    KvfsOptions o;
    o.gpu_page_budget = 256;
    o.host_page_budget = 256;
    return o;
  }

  Model model_;
  Simulator sim_;
  Kvfs kvfs_;
  Device device_;
  InferenceScheduler scheduler_;
  LipRuntime runtime_;
};

TEST_F(SchedTest, PredReturnsOneDistPerToken) {
  size_t dist_count = 0;
  Status status;
  runtime_.Launch("basic", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_tokens(kv, 260, 261, 262);
    status = dists.status();
    if (dists.ok()) {
      dist_count = dists->size();
    }
    co_return;
  });
  sim_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(dist_count, 3u);
}

TEST_F(SchedTest, LongPredReturnsOneLazyDistPerTokenInStateOrder) {
  // Prefill distributions are built lazily; their states must still be the
  // model's, token by token, and a queried one must match direct Predict.
  std::vector<TokenId> prompt;
  for (int i = 0; i < 3000; ++i) {
    prompt.push_back(static_cast<TokenId>(260 + (i * 7) % 200));
  }
  std::vector<Distribution> got;
  runtime_.Launch("long", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (dists.ok()) {
      got = std::move(*dists);
    }
    co_return;
  });
  sim_.Run();
  std::vector<HiddenState> states =
      model_.AdvanceSeq(model_.InitialState(), prompt, 0);
  ASSERT_EQ(got.size(), 3000u);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].state(), states[i]) << i;
  }
  EXPECT_EQ(got.back().TopCandidates(),
            model_.Predict(states.back()).TopCandidates());
  EXPECT_EQ(got[1234].Dense(), model_.Predict(states[1234]).Dense());
}

TEST_F(SchedTest, PredMatchesDirectModelComputation) {
  // Greedy decoding through the full serving stack must equal greedy
  // decoding straight on the Model.
  std::vector<TokenId> prompt = {260, 265, 270};
  constexpr int kSteps = 12;

  // Direct computation.
  std::vector<TokenId> expected;
  {
    HiddenState s = model_.InitialState();
    int32_t pos = 0;
    for (TokenId t : prompt) {
      s = model_.Advance(s, t, pos++);
    }
    TokenId next = model_.Predict(s).Argmax();
    for (int i = 0; i < kSteps; ++i) {
      expected.push_back(next);
      s = model_.Advance(s, next, pos++);
      next = model_.Predict(s).Argmax();
    }
  }

  std::vector<TokenId> got;
  runtime_.Launch("greedy", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists = co_await ctx.pred(kv, prompt);
    if (!dists.ok()) {
      co_return;
    }
    TokenId next = dists->back().Argmax();
    for (int i = 0; i < kSteps; ++i) {
      got.push_back(next);
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, next);
      if (!d.ok()) {
        co_return;
      }
      next = d->back().Argmax();
    }
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(got, expected);
}

TEST_F(SchedTest, PredAppendsRecordsToFile) {
  uint64_t final_len = 0;
  HiddenState tail = 0;
  runtime_.Launch("append", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261);
    (void)co_await ctx.pred1(kv, 262);
    final_len = *ctx.kv_len(kv);
    tail = *runtime_.kvfs()->TailState(kv);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(final_len, 3u);
  std::vector<HiddenState> states =
      model_.AdvanceSeq(model_.InitialState(), {260, 261, 262}, 0);
  EXPECT_EQ(tail, states.back());
}

TEST_F(SchedTest, NonContinuationPositionsRejected) {
  Status status;
  runtime_.Launch("badpos", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    // File is empty, so position must be 0; 5 must be rejected.
    std::vector<TokenId> toks = {260};
    std::vector<int32_t> bad_positions = {5};
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_at(kv, std::move(toks), std::move(bad_positions));
    status = dists.status();
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // A rejected request still waited in the queue; the sample must not be
  // silently dropped from the latency series.
  EXPECT_EQ(scheduler_.queue_waits_ms().count(), 1u);
}

TEST_F(SchedTest, SpeculativeRollbackViaTruncate) {
  // Draft-then-verify: append 4 draft tokens in one pred, "reject" the last
  // two, truncate, and continue — state must match the accepted prefix.
  bool ok = false;
  runtime_.Launch("spec", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261, 262, 263);
    (void)ctx.kv_truncate(kv, 2);
    StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, 290);
    if (!d.ok()) {
      co_return;
    }
    std::vector<HiddenState> direct =
        model_.AdvanceSeq(model_.InitialState(), {260, 261, 290}, 0);
    ok = (*runtime_.kvfs()->TailState(kv) == direct.back());
    co_return;
  });
  sim_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(SchedTest, ForkedFilesContinueIndependently) {
  HiddenState tail_a = 0;
  HiddenState tail_b = 0;
  runtime_.Launch("forker", [&](LipContext& ctx) -> Task {
    KvHandle base = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(base, 260, 261);
    KvHandle a = *ctx.kv_fork(base);
    KvHandle b = *ctx.kv_fork(base);
    (void)co_await ctx.pred1(a, 270);
    (void)co_await ctx.pred1(b, 280);
    tail_a = *runtime_.kvfs()->TailState(a);
    tail_b = *runtime_.kvfs()->TailState(b);
    co_return;
  });
  sim_.Run();
  std::vector<HiddenState> da =
      model_.AdvanceSeq(model_.InitialState(), {260, 261, 270}, 0);
  std::vector<HiddenState> db =
      model_.AdvanceSeq(model_.InitialState(), {260, 261, 280}, 0);
  EXPECT_EQ(tail_a, da.back());
  EXPECT_EQ(tail_b, db.back());
}

TEST_F(SchedTest, ConcurrentPredsAreBatched) {
  // 8 LIPs submit preds at the same instant; eager policy launches one batch
  // for the first, and the remaining 7 coalesce into the next batch(es).
  constexpr int kLips = 8;
  int completed = 0;
  for (int i = 0; i < kLips; ++i) {
    runtime_.Launch("client", [&](LipContext& ctx) -> Task {
      KvHandle kv = *ctx.kv_tmp();
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred_tokens(kv, 260);
      if (d.ok()) {
        ++completed;
      }
      co_return;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, kLips);
  EXPECT_LT(scheduler_.stats().batches, static_cast<uint64_t>(kLips));
  EXPECT_GE(device_.stats().batches, 2u);
}

TEST_F(SchedTest, RestoreFromHostChargesTransfer) {
  runtime_.Launch("offloaded", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260, 261, 262);
    // Push the file to host, then pred again: the scheduler must restore it.
    (void)runtime_.kvfs()->OffloadToHost(kv);
    (void)runtime_.kvfs()->TakePendingTransferBytes();  // Clear offload bytes.
    (void)co_await ctx.pred1(kv, 263);
    co_return;
  });
  sim_.Run();
  EXPECT_GT(device_.stats().transfer_bytes, 0u);
}

TEST_F(SchedTest, DeviceAccountsUtilization) {
  runtime_.Launch("busy", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    for (int i = 0; i < 5; ++i) {
      (void)co_await ctx.pred1(kv, static_cast<TokenId>(260 + i));
    }
    co_return;
  });
  sim_.Run();
  EXPECT_GT(device_.stats().busy_time, 0);
  EXPECT_GT(device_.Utilization(), 0.1);
  EXPECT_LE(device_.Utilization(), 1.0);
  EXPECT_EQ(device_.stats().new_tokens, 5u);
}

TEST_F(SchedTest, QueueWaitRecorded) {
  runtime_.Launch("w", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260);
    co_return;
  });
  sim_.Run();
  EXPECT_EQ(scheduler_.queue_waits_ms().count(), 1u);
}

TEST_F(SchedTest, FairSharePicksAcrossLips) {
  // Two LIPs: a hog with 6 concurrent single-token preds per round and a
  // victim with one. Under fair share (batch capped at 2), the victim must
  // ride in the first batch after its submit, never behind the whole hog
  // backlog.
  Simulator sim;
  Kvfs kvfs(MakeKvfsOptions());
  Model model(ModelConfig::Tiny());
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions sched_options;
  sched_options.discipline = QueueDiscipline::kFairShare;
  sched_options.max_batch_requests = 2;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), sched_options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  SampleSeries victim_waits_ms;
  runtime.Launch("hog", [&](LipContext& ctx) -> Task {
    for (int w = 0; w < 6; ++w) {
      ctx.spawn([&, w](LipContext& inner) -> Task {
        KvHandle kv = *inner.kv_tmp();
        for (int i = 0; i < 20; ++i) {
          StatusOr<std::vector<Distribution>> d =
              co_await inner.pred1(kv, static_cast<TokenId>(260 + w));
          if (!d.ok()) {
            co_return;
          }
        }
        co_return;
      });
    }
    co_await ctx.join_all();
    co_return;
  });
  runtime.Launch("victim", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    for (int i = 0; i < 10; ++i) {
      SimTime start = ctx.now();
      StatusOr<std::vector<Distribution>> d = co_await ctx.pred1(kv, 300);
      if (!d.ok()) {
        co_return;
      }
      victim_waits_ms.Add(ToMillis(ctx.now() - start));
      co_await ctx.sleep(Millis(2));
    }
    co_return;
  });
  sim.Run();
  ASSERT_EQ(victim_waits_ms.count(), 10u);
  // Batch time ~0.16ms (tiny model); with 6 hog requests always queued and
  // batch size 2, FIFO would make the victim wait ~3+ batches regularly.
  // Fair share bounds it near 2 batch times (in-flight + next).
  EXPECT_LT(victim_waits_ms.max(), 1.2);
}

class PoissonSchedTest : public SchedTest {
 protected:
  PoissonSchedTest() : SchedTest(std::make_unique<PoissonAdaptivePolicy>(Millis(10))) {}
};

TEST_F(PoissonSchedTest, AccumulatesBatchesUnderLoad) {
  // 32 LIPs arriving every 10us — much faster than a ~150us batch — so the
  // adaptive policy should coalesce arrivals into a few large batches
  // rather than 32 singletons.
  constexpr int kLips = 32;
  int completed = 0;
  for (int i = 0; i < kLips; ++i) {
    sim_.ScheduleAt(Micros(10) * i, [&, i] {
      (void)i;
      runtime_.Launch("client", [&](LipContext& ctx) -> Task {
        KvHandle kv = *ctx.kv_tmp();
        StatusOr<std::vector<Distribution>> d = co_await ctx.pred_tokens(kv, 260);
        if (d.ok()) {
          ++completed;
        }
        co_return;
      });
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, kLips);
  EXPECT_LE(scheduler_.stats().batches, 8u);
}

TEST_F(PoissonSchedTest, MaxWaitBoundsLatency) {
  // A single lonely request must still launch within max_wait (10ms) plus
  // execution time, not wait forever for a batch to fill.
  SimTime done_at = -1;
  runtime_.Launch("lonely", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    (void)co_await ctx.pred_tokens(kv, 260);
    done_at = ctx.now();
    co_return;
  });
  sim_.Run();
  EXPECT_GT(done_at, 0);
  EXPECT_LT(done_at, Millis(40));
}

TEST(SizeTimeoutPolicyTest, LaunchesAtSize) {
  SizeTimeoutPolicy policy(4, Millis(100));
  BatchPolicyInput input;
  input.queue_size = 4;
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
  input.queue_size = 3;
  input.oldest_wait = Millis(1);
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_GT(d.recheck_after, 0);
}

TEST(SizeTimeoutPolicyTest, LaunchesAtTimeout) {
  SizeTimeoutPolicy policy(64, Millis(5));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(5);
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(PoissonPolicyTest, HighRateWaitsForBatch) {
  PoissonAdaptivePolicy policy(Millis(50));
  BatchPolicyInput input;
  input.queue_size = 2;
  input.oldest_wait = Millis(1);
  input.arrival_rate_per_sec = 1000.0;  // ~20 arrivals per 20ms batch.
  input.est_batch_time = Millis(20);
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
}

TEST(PoissonPolicyTest, LowRateLaunchesImmediately) {
  PoissonAdaptivePolicy policy(Millis(50));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Micros(100);
  input.arrival_rate_per_sec = 5.0;  // Sparse arrivals: don't wait.
  input.est_batch_time = Millis(20);
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(PoissonPolicyTest, RecheckNeverOvershootsBudgetBelowMinimumGap) {
  // 20us of budget left is below the 50us minimum gap: the remaining budget
  // wins, so the recheck lands exactly at max_wait.
  PoissonAdaptivePolicy policy(Millis(50));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(50) - Micros(20);
  input.arrival_rate_per_sec = 5.0;  // 200ms gap, far past the budget.
  input.est_batch_time = Seconds(1);  // Expects 5 arrivals: keep waiting.
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_EQ(d.recheck_after, Micros(20));
}

TEST(SizeTimeoutPolicyTest, EmptyQueueWaitsFullTimeout) {
  SizeTimeoutPolicy policy(4, Millis(100));
  BatchPolicyInput input;
  input.queue_size = 0;
  input.oldest_wait = 0;
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_EQ(d.recheck_after, Millis(100));
}

TEST(SizeTimeoutPolicyTest, WaitExactlyAtTimeoutLaunches) {
  SizeTimeoutPolicy policy(64, Millis(5));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(5);  // Boundary: >= is launch, not >.
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
  input.oldest_wait = Millis(5) - 1;
  EXPECT_FALSE(policy.ShouldLaunch(input).launch);
}

TEST(SizeTimeoutPolicyTest, RecheckIsClampedToMinimumGranularity) {
  // 1ns short of the timeout must not schedule a 1ns recheck spin.
  SizeTimeoutPolicy policy(64, Millis(5));
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = Millis(5) - 1;
  input.max_batch = 32;
  BatchDecision d = policy.ShouldLaunch(input);
  EXPECT_FALSE(d.launch);
  EXPECT_GE(d.recheck_after, Micros(50));
}

TEST(SizeTimeoutPolicyTest, TargetAboveMaxBatchLaunchesAtMaxBatch) {
  // target_size 64 but the device caps at 8: a full device batch must not
  // wait for the unreachable target.
  SizeTimeoutPolicy policy(64, Seconds(10));
  BatchPolicyInput input;
  input.queue_size = 8;
  input.oldest_wait = 0;
  input.max_batch = 8;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(SizeTimeoutPolicyTest, ZeroTimeoutDegeneratesToEager) {
  SizeTimeoutPolicy policy(64, 0);
  BatchPolicyInput input;
  input.queue_size = 1;
  input.oldest_wait = 0;
  input.max_batch = 32;
  EXPECT_TRUE(policy.ShouldLaunch(input).launch);
}

TEST(MemoryBackoffTest, RequeuesWithExponentialBackoffUntilPressureLifts) {
  // Pin the whole GPU pool for a window; a pred arriving during it cannot
  // restore its KV and must survive on backoff retries, then complete when
  // the pins release. The doubling backoff keeps the retry count far below
  // a fixed-interval scheme's.
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 8;
  kv_options.host_page_budget = 256;
  kv_options.clock = [&sim] { return sim.now(); };
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions options;
  options.memory_retry_backoff = Millis(1);
  options.memory_retry_backoff_cap = Millis(8);
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  // Occupy all 8 GPU pages with a pinned admin file until t=50ms.
  KvHandle pressure = *kvfs.CreateAnonymous(kAdminLip);
  std::vector<TokenRecord> filler(8 * kPageTokens);
  for (size_t i = 0; i < filler.size(); ++i) {
    filler[i] = TokenRecord{0, static_cast<int32_t>(i), 0};
  }
  ASSERT_TRUE(kvfs.Append(pressure, filler).ok());
  ASSERT_TRUE(kvfs.Pin(pressure).ok());
  sim.ScheduleAt(Millis(50), [&] {
    ASSERT_TRUE(kvfs.Unpin(pressure).ok());
    ASSERT_TRUE(kvfs.Close(pressure).ok());
  });

  Status status;
  SimTime done_at = -1;
  runtime.Launch("starved", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_tokens(kv, 260, 261);
    status = dists.status();
    done_at = ctx.now();
    co_return;
  });
  sim.Run();

  ASSERT_TRUE(status.ok()) << status;
  EXPECT_GT(done_at, Millis(50));  // Only succeeded after the window closed.
  const InferenceSchedulerStats& stats = scheduler.stats();
  EXPECT_GT(stats.memory_requeues, 0u);
  EXPECT_GE(stats.max_memory_retry_depth, 4u);
  // Doubling schedule over ~50ms: 1+2+4+8+8+... needs ~9 retries; a fixed
  // 1ms interval would need ~50. Allow slack but catch a non-growing backoff.
  EXPECT_LE(stats.memory_requeues, 15u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(MemoryBackoffTest, RetryBudgetExhaustionFailsTheRequest) {
  // Pressure that never lifts: the request must fail with the original
  // kResourceExhausted once max_memory_retries is spent, not spin forever.
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 8;
  kv_options.host_page_budget = 256;
  kv_options.clock = [&sim] { return sim.now(); };
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions options;
  options.memory_retry_backoff = Millis(1);
  options.memory_retry_backoff_cap = Millis(4);
  options.max_memory_retries = 6;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  KvHandle pressure = *kvfs.CreateAnonymous(kAdminLip);
  std::vector<TokenRecord> filler(8 * kPageTokens);
  for (size_t i = 0; i < filler.size(); ++i) {
    filler[i] = TokenRecord{0, static_cast<int32_t>(i), 0};
  }
  ASSERT_TRUE(kvfs.Append(pressure, filler).ok());
  ASSERT_TRUE(kvfs.Pin(pressure).ok());

  Status status;
  runtime.Launch("doomed", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> dists =
        co_await ctx.pred_tokens(kv, 260, 261);
    status = dists.status();
    co_return;
  });
  sim.Run();

  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().memory_requeues, 6u);
  EXPECT_EQ(scheduler.stats().max_memory_retry_depth, 6u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

// ---------------------------------------------------------------------------
// Stall-free scheduling: chunked prefill must be semantically invisible.
// ---------------------------------------------------------------------------

// Stress-scalable seeds, same contract as PropertySeeds in property_test.cc:
// curated base seeds by default, widened under SYMPHONY_STRESS.
std::vector<uint64_t> ChunkSeeds(std::vector<uint64_t> base, uint64_t stream) {
  const char* stress = std::getenv("SYMPHONY_STRESS");
  if (stress == nullptr || *stress == '\0' ||
      std::string_view(stress) == "0") {
    return base;
  }
  uint64_t extra = 64;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(stress, &end, 10);
  if (end != stress && *end == '\0' && parsed > 1) {
    extra = parsed;
  }
  for (uint64_t i = 0; i < extra; ++i) {
    base.push_back(Mix64((stream << 32) ^ (i + 1)));
  }
  return base;
}

struct LipObservation {
  std::vector<uint64_t> dist_states;  // Every distribution, in program order.
  HiddenState tail = 0;
  uint64_t kv_len = 0;
};

// Runs a mixed prefill+decode workload under the given chunk size (which also
// switches on decode-first packing). Everything returned must be independent
// of `chunk`: chunking may only change WHEN tokens are batched, never what
// they compute.
std::vector<LipObservation> RunChunkedWorkload(
    uint64_t seed, uint64_t chunk, InferenceSchedulerStats* stats_out) {
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 512;
  kv_options.host_page_budget = 512;
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Tiny()));
  InferenceSchedulerOptions options;
  options.prefill_chunk_tokens = chunk;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  constexpr size_t kLips = 4;
  std::vector<LipObservation> obs(kLips);
  Rng rng(seed);
  for (size_t i = 0; i < kLips; ++i) {
    // LIP 0 is a pure decode stream (short prompt); the rest prefill
    // 80..279 tokens, so every chunk size under 80 actually splits.
    uint64_t prompt_len = i == 0 ? 4 : 80 + rng.NextBounded(200);
    std::vector<TokenId> prompt(prompt_len);
    for (TokenId& t : prompt) {
      t = static_cast<TokenId>(1 + rng.NextBounded(299));
    }
    int decode_steps = 4 + static_cast<int>(rng.NextBounded(5));
    sim.ScheduleAt(Micros(40) * static_cast<SimTime>(i),
                   [&, i, prompt = std::move(prompt), decode_steps] {
      runtime.Launch(
          "lip" + std::to_string(i),
          [&, i, prompt, decode_steps](LipContext& ctx) -> Task {
            KvHandle kv = *ctx.kv_tmp();
            StatusOr<std::vector<Distribution>> d = co_await ctx.pred(kv, prompt);
            if (!d.ok()) {
              co_return;
            }
            for (const Distribution& dist : *d) {
              obs[i].dist_states.push_back(dist.state());
            }
            TokenId next = d->back().Argmax();
            for (int s = 0; s < decode_steps; ++s) {
              StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
              if (!dd.ok()) {
                co_return;
              }
              obs[i].dist_states.push_back(dd->back().state());
              next = dd->back().Argmax();
            }
            obs[i].kv_len = *ctx.kv_len(kv);
            obs[i].tail = *runtime.kvfs()->TailState(kv);
            co_return;
          });
    });
  }
  sim.Run();
  if (stats_out != nullptr) {
    *stats_out = scheduler.stats();
  }
  return obs;
}

class ChunkInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkInvarianceTest, ChunkedExecutionIsBitIdentical) {
  uint64_t seed = GetParam();
  std::vector<LipObservation> baseline =
      RunChunkedWorkload(seed, /*chunk=*/0, nullptr);
  for (const LipObservation& o : baseline) {
    ASSERT_FALSE(o.dist_states.empty());
    ASSERT_GT(o.kv_len, 0u);
  }
  for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{64}, uint64_t{512}}) {
    InferenceSchedulerStats stats;
    std::vector<LipObservation> got = RunChunkedWorkload(seed, chunk, &stats);
    ASSERT_EQ(got.size(), baseline.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].dist_states, baseline[i].dist_states)
          << "lip " << i << " chunk " << chunk;
      EXPECT_EQ(got[i].tail, baseline[i].tail) << "lip " << i << " chunk " << chunk;
      EXPECT_EQ(got[i].kv_len, baseline[i].kv_len)
          << "lip " << i << " chunk " << chunk;
    }
    if (chunk < 80) {
      // Every prefill is larger than the chunk, so splits must happen
      // (and each split contributes at least two chunk launches).
      EXPECT_GT(stats.prefills_chunked, 0u) << "chunk " << chunk;
      EXPECT_GT(stats.prefill_chunks, stats.prefills_chunked)
          << "chunk " << chunk;
    } else {
      EXPECT_EQ(stats.prefills_chunked, 0u) << "chunk " << chunk;
    }
    // Occupancy accounting covers both request classes in this mix.
    EXPECT_GT(stats.decode_tokens_batched, 0u);
    EXPECT_GT(stats.prefill_tokens_batched, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkInvarianceTest,
                         ::testing::ValuesIn(ChunkSeeds({11, 29, 47}, 0xC0)));

// ---------------------------------------------------------------------------
// The batch pick order is one sort key; it must visit requests exactly as the
// greedy rescan it replaced would.
// ---------------------------------------------------------------------------

// Reference: the greedy pick rule, run to exhaustion without caps or
// drop-outs. Each step rescans the queue for the oldest unpicked request —
// under fair share, the oldest among the LIPs with the fewest picks so far —
// offering only decode-sized requests until none is left when chunking (and
// with it decode-first packing) is on.
std::vector<size_t> GreedyPickOrder(const std::deque<PredRequest>& queue,
                                    const InferenceSchedulerOptions& options) {
  auto is_decode = [](const PredRequest& request) {
    return request.chunk_done == 0 && request.tokens.size() <= 8;
  };
  std::unordered_map<LipId, uint32_t> taken;
  std::vector<char> picked(queue.size(), 0);
  std::vector<size_t> order;
  bool decode_phase = options.prefill_chunk_tokens > 0;
  while (order.size() < queue.size()) {
    size_t best = queue.size();
    uint32_t best_count = UINT32_MAX;
    for (size_t i = 0; i < queue.size(); ++i) {
      if (picked[i] != 0 || (decode_phase && !is_decode(queue[i]))) {
        continue;
      }
      if (options.discipline == QueueDiscipline::kFifo) {
        best = i;
        break;
      }
      uint32_t count = taken[queue[i].lip];
      if (count < best_count) {
        best = i;
        best_count = count;
      }
    }
    if (best == queue.size()) {
      decode_phase = false;  // Decodes exhausted; the prefills follow.
      continue;
    }
    picked[best] = 1;
    ++taken[queue[best].lip];
    order.push_back(best);
  }
  return order;
}

class PickOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PickOrderTest, SortedOrderMatchesGreedyRescan) {
  Rng rng(GetParam());
  size_t fair_reorders = 0;   // Fair share departed from arrival order.
  size_t decode_reorders = 0;  // Decode-first departed from arrival order.
  for (int trial = 0; trial < 300; ++trial) {
    std::deque<PredRequest> queue(rng.NextBounded(40));
    uint64_t lips = 1 + rng.NextBounded(6);
    for (PredRequest& request : queue) {
      request.lip = static_cast<LipId>(2 + rng.NextBounded(lips));
      uint64_t kind = rng.NextBounded(3);
      // A decode, a fresh prefill, or a split continuation whose tail may
      // be decode-sized but still counts as prefill.
      size_t tokens = kind == 0   ? 1 + rng.NextBounded(8)
                      : kind == 1 ? 9 + rng.NextBounded(600)
                                  : 1 + rng.NextBounded(64);
      request.tokens.assign(tokens, 260);
      request.chunk_done = kind == 2 ? 1 + rng.NextBounded(512) : 0;
    }
    std::vector<size_t> arrival(queue.size());
    for (size_t i = 0; i < arrival.size(); ++i) {
      arrival[i] = i;
    }
    for (QueueDiscipline discipline :
         {QueueDiscipline::kFifo, QueueDiscipline::kFairShare}) {
      for (uint64_t chunk : {uint64_t{0}, uint64_t{64}}) {
        InferenceSchedulerOptions options;
        options.discipline = discipline;
        options.prefill_chunk_tokens = chunk;
        std::vector<size_t> order = BatchPickOrder(queue, options);
        ASSERT_EQ(order, GreedyPickOrder(queue, options))
            << "trial " << trial << " fair "
            << (discipline == QueueDiscipline::kFairShare) << " chunk "
            << chunk;
        if (order != arrival) {
          ++(chunk == 0 ? fair_reorders : decode_reorders);
        }
      }
    }
  }
  // The queues exercise both reorderings, not only arrival order.
  EXPECT_GT(fair_reorders, 0u);
  EXPECT_GT(decode_reorders, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PickOrderTest,
                         ::testing::ValuesIn(ChunkSeeds({5, 17, 23}, 0xC1)));

// ---------------------------------------------------------------------------
// Chunking exists to bound decode tail latency: shrinking the chunk must
// never make the decode p99 worse, and a small chunk must beat unchunked by
// a wide margin.
// ---------------------------------------------------------------------------

// Decode p99 (ms) for a decode stream contending with a stream of 2000-token
// prefills. Timing uses the Llama13B cost model — on Tiny the 150us kernel
// overhead dwarfs per-token compute and chunking would be unobservable.
double DecodeP99ForChunk(uint64_t chunk) {
  Simulator sim;
  Model model(ModelConfig::Tiny());
  KvfsOptions kv_options;
  kv_options.gpu_page_budget = 2048;
  kv_options.host_page_budget = 2048;
  Kvfs kvfs(kv_options);
  Device device(&sim, CostModel(ModelConfig::Llama13B()));
  InferenceSchedulerOptions options;
  options.prefill_chunk_tokens = chunk;
  InferenceScheduler scheduler(&sim, &kvfs, &model, &device,
                               std::make_unique<EagerPolicy>(), options);
  LipRuntime runtime(&sim, &kvfs);
  runtime.set_pred_service(&scheduler);

  SampleSeries decode_ms;
  runtime.Launch("decoder", [&](LipContext& ctx) -> Task {
    KvHandle kv = *ctx.kv_tmp();
    StatusOr<std::vector<Distribution>> d =
        co_await ctx.pred_tokens(kv, 260, 261, 262, 263);
    if (!d.ok()) {
      co_return;
    }
    TokenId next = d->back().Argmax();
    for (int i = 0; i < 120; ++i) {
      SimTime start = ctx.now();
      StatusOr<std::vector<Distribution>> dd = co_await ctx.pred1(kv, next);
      if (!dd.ok()) {
        co_return;
      }
      decode_ms.Add(ToMillis(ctx.now() - start));
      next = dd->back().Argmax();
    }
    co_return;
  });
  std::vector<TokenId> prompt(2000);
  for (size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<TokenId>(1 + i % 299);
  }
  for (int p = 0; p < 6; ++p) {
    sim.ScheduleAt(Millis(20) + Millis(150) * p, [&] {
      runtime.Launch("prefill", [&](LipContext& ctx) -> Task {
        KvHandle kv = *ctx.kv_tmp();
        (void)co_await ctx.pred(kv, prompt);
        co_return;
      });
    });
  }
  sim.Run();
  EXPECT_EQ(decode_ms.count(), 120u) << "chunk " << chunk;
  return decode_ms.Percentile(0.99);
}

TEST(ChunkLatencyTest, DecodeTailLatencyNonIncreasingAsChunkShrinks) {
  const std::vector<uint64_t> chunks = {0, 512, 128, 32};
  std::vector<double> p99;
  for (uint64_t chunk : chunks) {
    p99.push_back(DecodeP99ForChunk(chunk));
  }
  for (size_t i = 1; i < p99.size(); ++i) {
    EXPECT_LE(p99[i], p99[i - 1] * 1.05)
        << "chunk " << chunks[i] << " worsened decode p99: " << p99[i]
        << "ms vs " << p99[i - 1] << "ms at chunk " << chunks[i - 1];
  }
  // The headline effect, not a tie: a 32-token chunk bounds the batch a
  // decode can get stuck behind to a fraction of a full 2000-token prefill.
  EXPECT_LT(p99.back(), p99.front() / 2.0);
}

}  // namespace
}  // namespace symphony
