// Tests for the deterministic pseudo-LLM: state evolution, distribution
// properties, cost model shape. These encode the invariants the whole
// serving stack depends on (prefix reuse == recompute).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/model/cost_model.h"
#include "src/model/distribution.h"
#include "src/model/model.h"
#include "src/model/model_config.h"

namespace symphony {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  Model model_{ModelConfig::Tiny()};
};

TEST_F(ModelTest, AdvanceIsDeterministic) {
  HiddenState a = model_.Advance(model_.InitialState(), 270, 0);
  HiddenState b = model_.Advance(model_.InitialState(), 270, 0);
  EXPECT_EQ(a, b);
}

TEST_F(ModelTest, StateDependsOnToken) {
  HiddenState a = model_.Advance(model_.InitialState(), 270, 0);
  HiddenState b = model_.Advance(model_.InitialState(), 271, 0);
  EXPECT_NE(a, b);
}

TEST_F(ModelTest, StateDependsOnPosition) {
  HiddenState a = model_.Advance(model_.InitialState(), 270, 0);
  HiddenState b = model_.Advance(model_.InitialState(), 270, 1);
  EXPECT_NE(a, b);
}

TEST_F(ModelTest, PrefixReuseEqualsRecompute) {
  // The central KV-cache invariant: continuing from a cached prefix state
  // produces the same states as recomputing the full sequence.
  std::vector<TokenId> prefix = {260, 261, 262, 263};
  std::vector<TokenId> suffix = {264, 265};

  std::vector<HiddenState> full_states = model_.AdvanceSeq(
      model_.InitialState(), {260, 261, 262, 263, 264, 265}, 0);

  std::vector<HiddenState> prefix_states =
      model_.AdvanceSeq(model_.InitialState(), prefix, 0);
  std::vector<HiddenState> resumed =
      model_.AdvanceSeq(prefix_states.back(), suffix,
                        static_cast<int32_t>(prefix.size()));

  EXPECT_EQ(full_states[3], prefix_states[3]);
  EXPECT_EQ(full_states[4], resumed[0]);
  EXPECT_EQ(full_states[5], resumed[1]);
}

TEST_F(ModelTest, DifferentFamiliesDiverge) {
  Model other(ModelConfig::Llama13B());
  EXPECT_NE(model_.InitialState(), other.InitialState());
}

TEST_F(ModelTest, PredictIsDeterministic) {
  HiddenState s = model_.Advance(model_.InitialState(), 270, 0);
  Distribution d1 = model_.Predict(s);
  Distribution d2 = model_.Predict(s);
  EXPECT_EQ(d1.Argmax(), d2.Argmax());
  EXPECT_EQ(d1.TopCandidates(), d2.TopCandidates());
}

class DistributionTest : public ::testing::Test {
 protected:
  ModelConfig config_ = ModelConfig::Tiny();
  Model model_{config_};

  Distribution DistAfter(std::vector<TokenId> tokens) {
    HiddenState s = model_.InitialState();
    int32_t pos = 0;
    for (TokenId t : tokens) {
      s = model_.Advance(s, t, pos++);
    }
    return model_.Predict(s);
  }
};

TEST_F(DistributionTest, DenseSumsToOne) {
  Distribution d = DistAfter({260, 300 % 256});
  std::vector<double> probs = d.Dense();
  ASSERT_EQ(probs.size(), config_.vocab_size);
  double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(DistributionTest, ProbMatchesDense) {
  Distribution d = DistAfter({261});
  std::vector<double> probs = d.Dense();
  for (TokenId t = 0; t < static_cast<TokenId>(config_.vocab_size); t += 7) {
    EXPECT_NEAR(d.Prob(t), probs[static_cast<size_t>(t)], 1e-12) << "token " << t;
  }
}

TEST_F(DistributionTest, ArgmaxMatchesDense) {
  for (TokenId seed_token = 260; seed_token < 280; ++seed_token) {
    Distribution d = DistAfter({seed_token});
    std::vector<double> probs = d.Dense();
    TokenId argmax = 0;
    for (TokenId t = 1; t < static_cast<TokenId>(probs.size()); ++t) {
      if (probs[static_cast<size_t>(t)] > probs[static_cast<size_t>(argmax)]) {
        argmax = t;
      }
    }
    EXPECT_EQ(d.Argmax(), argmax);
  }
}

TEST_F(DistributionTest, SampleMatchesDistribution) {
  Distribution d = DistAfter({262});
  Rng rng(1234);
  std::vector<int> counts(config_.vocab_size, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    TokenId t = d.Sample(rng.NextDouble());
    ASSERT_GE(t, 0);
    ASSERT_LT(t, static_cast<TokenId>(config_.vocab_size));
    ++counts[static_cast<size_t>(t)];
  }
  // Empirical frequency of the top candidates should match Prob().
  for (TokenId t : d.TopCandidates()) {
    double expected = d.Prob(t);
    double got = static_cast<double>(counts[static_cast<size_t>(t)]) / kN;
    EXPECT_NEAR(got, expected, 0.01) << "token " << t;
  }
}

TEST_F(DistributionTest, LowTemperatureSharpens) {
  Distribution d = DistAfter({263});
  Rng rng(99);
  int argmax_hits_cold = 0;
  int argmax_hits_hot = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    if (d.Sample(rng.NextDouble(), 0.1) == d.Argmax()) {
      ++argmax_hits_cold;
    }
    if (d.Sample(rng.NextDouble(), 3.0) == d.Argmax()) {
      ++argmax_hits_hot;
    }
  }
  EXPECT_GT(argmax_hits_cold, argmax_hits_hot);
  EXPECT_GT(argmax_hits_cold, kN * 9 / 10);
}

TEST_F(DistributionTest, GreedyMaskedRespectsMask) {
  Distribution d = DistAfter({264});
  TokenId only = 42;
  TokenId got = d.GreedyMasked([&](TokenId t) { return t == only; });
  EXPECT_EQ(got, only);
}

TEST_F(DistributionTest, GreedyMaskedPrefersBestAllowedCandidate) {
  Distribution d = DistAfter({265});
  std::vector<TokenId> cands = d.TopCandidates();
  // Disallow the argmax; expect the next-best candidate.
  TokenId got = d.GreedyMasked([&](TokenId t) { return t != cands[0]; });
  EXPECT_EQ(got, cands[1]);
}

TEST_F(DistributionTest, GreedyMaskedDeadEndReturnsUnk) {
  Distribution d = DistAfter({266});
  EXPECT_EQ(d.GreedyMasked([](TokenId) { return false; }), kUnkToken);
}

TEST_F(DistributionTest, SampleMaskedOnlyReturnsAllowed) {
  Distribution d = DistAfter({267});
  Rng rng(7);
  auto even = [](TokenId t) { return t % 2 == 0; };
  for (int i = 0; i < 1000; ++i) {
    TokenId t = d.SampleMasked(rng.NextDouble(), 1.0, even);
    EXPECT_EQ(t % 2, 0);
  }
}

TEST_F(DistributionTest, FamilyMembersShareCandidates) {
  // Target and draft (same family) must mostly agree on candidate sets for
  // speculative decoding to be interesting.
  Model target(ModelConfig::Llama13B());
  Model draft(ModelConfig::Llama1BDraft());
  ASSERT_EQ(target.InitialState(), draft.InitialState());
  HiddenState s = target.InitialState();
  int argmax_agree = 0;
  constexpr int kSteps = 300;
  for (int i = 0; i < kSteps; ++i) {
    Distribution dt = target.Predict(s);
    Distribution dd = draft.Predict(s);
    EXPECT_EQ(dt.state(), dd.state());
    if (dt.Argmax() == dd.Argmax()) {
      ++argmax_agree;
    }
    s = target.Advance(s, dt.Argmax(), i);
  }
  double agreement = static_cast<double>(argmax_agree) / kSteps;
  EXPECT_GT(agreement, 0.4);  // Correlated...
  EXPECT_LT(agreement, 0.99);  // ...but not identical.
}

TEST_F(DistributionTest, EosAppearsWithConfiguredBias) {
  ModelConfig biased = ModelConfig::Tiny();
  biased.eos_bias_permille = 200;  // 20% of steps boost EOS to the top.
  Model model(biased);
  HiddenState s = model.InitialState();
  int eos_top = 0;
  constexpr int kSteps = 2000;
  for (int i = 0; i < kSteps; ++i) {
    Distribution d = model.Predict(s);
    std::vector<TokenId> cands = d.TopCandidates();
    bool eos_candidate = false;
    for (TokenId t : cands) {
      if (t == kEosToken) {
        eos_candidate = true;
      }
    }
    if (eos_candidate) {
      ++eos_top;
    }
    s = model.Advance(s, static_cast<TokenId>(260 + (i % 40)), i);
  }
  EXPECT_NEAR(static_cast<double>(eos_top) / kSteps, 0.2, 0.05);
}

// Every query of a Distribution, its results flattened to doubles so that
// equality is exact. Running one query first on an object decides which
// query builds its candidate table.
using DistQuery = std::function<std::vector<double>(const Distribution&)>;

std::vector<DistQuery> AllDistQueries() {
  auto every_third = [](TokenId t) { return t % 3 == 0; };
  auto only_one = [](TokenId t) { return t == 7; };
  auto tokens = [](const std::vector<TokenId>& ts) {
    return std::vector<double>(ts.begin(), ts.end());
  };
  return {
      [](const Distribution& d) {
        return std::vector<double>{static_cast<double>(d.Argmax())};
      },
      [](const Distribution& d) {
        TokenId top = d.Argmax();
        return std::vector<double>{d.Prob(top), d.Prob(5), d.Prob(-1)};
      },
      [](const Distribution& d) {
        return std::vector<double>{d.LogProb(d.TopCandidates()[3]), d.LogProb(11)};
      },
      [](const Distribution& d) {
        std::vector<double> out;
        for (double u : {0.0, 0.1, 0.5, 0.9, 0.999999}) {
          for (double temperature : {0.3, 1.0, 2.5}) {
            out.push_back(d.Sample(u, temperature));
          }
        }
        return out;
      },
      [=](const Distribution& d) {
        return std::vector<double>{
            static_cast<double>(d.GreedyMasked(every_third)),
            static_cast<double>(d.GreedyMasked(only_one))};
      },
      [=](const Distribution& d) {
        std::vector<double> out;
        for (double u : {0.0, 0.4, 0.95}) {
          out.push_back(d.SampleMasked(u, 0.8, every_third));
          out.push_back(d.SampleMasked(u, 1.0, only_one));
        }
        return out;
      },
      [=](const Distribution& d) { return tokens(d.TopCandidates()); },
      [](const Distribution& d) { return d.Dense(); },
  };
}

TEST(LazyDistributionTest, QueriesAgreeOnFreshAndCopiedObjects) {
  std::vector<DistQuery> queries = AllDistQueries();
  for (const ModelConfig& config :
       {ModelConfig::Llama13B(), ModelConfig::Llama1BDraft()}) {
    Model model(config);
    HiddenState s = model.InitialState();
    for (int step = 0; step < 12; ++step) {
      // A fully built reference: every query has already run on it.
      Distribution warm = model.Predict(s);
      for (const DistQuery& q : queries) {
        (void)q(warm);
      }
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE(testing::Message() << config.name << " step " << step
                                        << " query " << qi);
        const DistQuery& q = queries[qi];
        Distribution fresh = model.Predict(s);
        Distribution copied_before = fresh;
        std::vector<double> expected = q(fresh);
        Distribution copied_after = fresh;
        EXPECT_EQ(q(fresh), expected);
        EXPECT_EQ(q(copied_before), expected);
        EXPECT_EQ(q(copied_after), expected);
        EXPECT_EQ(q(warm), expected);
      }
      s = model.Advance(s, static_cast<TokenId>(260 + step * 37), step);
    }
  }
}

TEST(LazyDistributionTest, CandidateTablesMatchGolden) {
  // Fixed candidate tables: any change to candidate drawing, EOS promotion,
  // jitter or ordering breaks them.
  struct Golden {
    uint64_t state;
    std::vector<TokenId> target;
    std::vector<TokenId> draft;
  };
  const std::vector<Golden> goldens = {
      {1ULL,
       {26916, 1542, 6617, 11547, 28022, 4634, 23645, 18162, 18177, 21883,
        11635, 5619, 10633, 8025, 14569, 4051},
       {26916, 6617, 1542, 11547, 4634, 28022, 23645, 18162, 21883, 18177,
        5619, 11635, 10633, 8025, 14569, 4051}},
      {0xdeadbeefcafef00dULL,
       {29, 8816, 8457, 21283, 7010, 15654, 11147, 21113, 25776, 15037,
        28227, 21640, 11035, 168, 16259, 7747},
       {29, 8816, 8457, 21283, 7010, 11147, 15654, 21113, 25776, 15037,
        28227, 21640, 11035, 168, 16259, 7747}},
      {0x0123456789abcdefULL,
       {10591, 2096, 4510, 26517, 3590, 22891, 14926, 17650, 20804, 18576,
        21206, 24987, 5773, 21589, 25112, 17558},
       {10591, 2096, 4510, 26517, 14926, 22891, 3590, 17650, 20804, 21206,
        18576, 24987, 5773, 21589, 25112, 17558}},
  };
  Model target(ModelConfig::Llama13B());
  Model draft(ModelConfig::Llama1BDraft());
  for (const Golden& g : goldens) {
    EXPECT_EQ(target.Predict(g.state).TopCandidates(), g.target) << g.state;
    EXPECT_EQ(draft.Predict(g.state).TopCandidates(), g.draft) << g.state;
  }
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModel cost_{ModelConfig::Llama13B()};
};

TEST_F(CostModelTest, EmptyBatchIsFree) {
  EXPECT_EQ(cost_.BatchTime({}), 0);
}

TEST_F(CostModelTest, DecodeStepIsMemoryBound) {
  // One decode token with 3000-token context: dominated by the weight pass
  // (~16ms at 2TB/s * 0.8 for 26GB).
  WorkItem item{1, 3000};
  SimDuration t = cost_.BatchTime(std::span<const WorkItem>(&item, 1));
  EXPECT_GT(t, Millis(10));
  EXPECT_LT(t, Millis(40));
}

TEST_F(CostModelTest, PrefillIsComputeBound) {
  // 3000-token prefill: ~0.5s of compute at 156 TFLOPS effective.
  WorkItem item{3000, 0};
  SimDuration t = cost_.BatchTime(std::span<const WorkItem>(&item, 1));
  EXPECT_GT(t, Millis(300));
  EXPECT_LT(t, Millis(800));
}

TEST_F(CostModelTest, BatchingAmortizesWeightPass) {
  // 8 decode tokens in one batch must be much cheaper than 8 separate steps.
  std::vector<WorkItem> batch(8, WorkItem{1, 1000});
  SimDuration batched = cost_.BatchTime(batch);
  WorkItem single{1, 1000};
  SimDuration sequential = 8 * cost_.BatchTime(std::span<const WorkItem>(&single, 1));
  EXPECT_LT(batched, sequential / 3);
}

TEST_F(CostModelTest, LongerContextCostsMore) {
  WorkItem short_ctx{1, 100};
  WorkItem long_ctx{1, 50000};
  EXPECT_LT(cost_.BatchTime(std::span<const WorkItem>(&short_ctx, 1)),
            cost_.BatchTime(std::span<const WorkItem>(&long_ctx, 1)));
}

TEST_F(CostModelTest, TransferTimeScalesWithBytes) {
  SimDuration small = cost_.TransferTime(1'000'000);
  SimDuration large = cost_.TransferTime(1'000'000'000);
  EXPECT_LT(small, large);
  // 1GB over 25GB/s ~= 40ms.
  EXPECT_NEAR(ToSeconds(large), 0.04, 0.005);
}

TEST_F(CostModelTest, ZeroByteNetworkTimeIsPropagationLatency) {
  // An empty message is still a packet: it pays the interconnect's
  // propagation latency even though it serializes in zero time.
  // (Regression: this used to return 0, letting empty-payload sends and
  // fully-deduped delta ships arrive instantaneously.)
  EXPECT_EQ(cost_.NetworkTime(0), cost_.hardware().interconnect_latency);
  EXPECT_GT(cost_.NetworkTime(1 << 20), cost_.NetworkTime(0));
}

TEST_F(CostModelTest, KvBudgetFitsRoughly50GB) {
  // 80GB - 26GB weights - 4GB activations = 50GB.
  EXPECT_NEAR(static_cast<double>(cost_.DeviceKvBudgetBytes()), 50e9, 1e9);
  // About 61k tokens at 0.82MB/token.
  EXPECT_GT(cost_.DeviceKvBudgetTokens(), 55'000u);
  EXPECT_LT(cost_.DeviceKvBudgetTokens(), 65'000u);
}

TEST_F(CostModelTest, CachedPrefillMuchCheaperThanFull) {
  // The Figure 3 asymmetry: generating 100 tokens on a cached 3000-token
  // prefix must be far cheaper than prefilling 3000 tokens first.
  WorkItem cached{100, 3000};
  WorkItem full{3100, 0};
  SimDuration cached_t = cost_.BatchTime(std::span<const WorkItem>(&cached, 1));
  SimDuration full_t = cost_.BatchTime(std::span<const WorkItem>(&full, 1));
  EXPECT_LT(cached_t * 5, full_t);
}

}  // namespace
}  // namespace symphony
