// Next-token distribution of the deterministic pseudo-LLM.
//
// A Distribution is defined constructively from the model's hidden state
// (a 64-bit rolling context hash):
//   * K candidate tokens are drawn pseudo-randomly from the family seed, so
//     models of the same family (target + draft) propose the same candidates;
//   * candidate j gets score -j*kScoreDecay plus model-specific jitter, which
//     differentiates rankings across family members;
//   * every non-candidate token shares a constant floor score.
// Probabilities are the softmax of these scores, which keeps Prob(), Sample()
// and Argmax() exact and O(K) while Dense() stays available (O(vocab)) for
// tests and constrained decoding over small vocabularies.
//
// The candidate table is materialized on the first query and memoized out of
// line, behind a pointer, so constructing a distribution nobody reads (a
// prefill token's) is O(1) and the object is 24 bytes: a pred returns one per
// input token but callers mostly read the last. Copies share nothing; a copy
// deep-copies a built table. Not thread-safe, like the rest of the
// single-threaded simulator.
//
// The same state always yields the same distribution — the property that
// makes KV-cache reuse verifiable end to end.
#ifndef SRC_MODEL_DISTRIBUTION_H_
#define SRC_MODEL_DISTRIBUTION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/model/model_config.h"
#include "src/model/tokenizer.h"

namespace symphony {

class Distribution {
 public:
  static constexpr int kNumCandidates = 16;
  static constexpr double kScoreDecay = 0.35;
  static constexpr double kFloorScore = -18.0;

  // `config` must outlive the distribution. O(1): stores only its inputs.
  Distribution(uint64_t state, const ModelConfig* config);

  Distribution(const Distribution& other);
  Distribution& operator=(const Distribution& other);
  Distribution(Distribution&&) noexcept = default;
  Distribution& operator=(Distribution&&) noexcept = default;

  uint64_t state() const { return state_; }

  // Highest-probability token.
  TokenId Argmax() const;

  // Exact probability of `token` at temperature 1.
  double Prob(TokenId token) const;
  double LogProb(TokenId token) const;

  // Samples with inverse-CDF using the caller-supplied uniform u in [0,1).
  // Taking u (not an Rng) keeps the model layer deterministic and lets the
  // sampler own randomness policy.
  TokenId Sample(double u, double temperature = 1.0) const;

  // Greedy over tokens satisfying `allowed`; scans candidates first, then the
  // vocabulary in a state-derived order. Returns kUnkToken if no token is
  // allowed (callers treat that as a grammar dead-end).
  TokenId GreedyMasked(const std::function<bool(TokenId)>& allowed) const;

  // Samples among *allowed candidates* (renormalized); falls back to
  // GreedyMasked's scan when no candidate is allowed.
  TokenId SampleMasked(double u, double temperature,
                       const std::function<bool(TokenId)>& allowed) const;

  // Candidate tokens in score order (rank 0 = Argmax).
  std::vector<TokenId> TopCandidates() const;

  // Full probability vector, length vocab_size. O(vocab); test/analysis use.
  std::vector<double> Dense() const;

  const ModelConfig& config() const { return *config_; }

 private:
  struct Entry {
    TokenId token;
    double score;  // Pre-temperature score.
  };

  using Table = std::array<Entry, kNumCandidates>;

  const Table& entries() const;  // Builds the table on first use.
  Table Build() const;
  double TailMass(double temperature) const;  // Total non-candidate weight.
  double CandidateWeight(double score, double temperature) const;

  uint64_t state_;
  const ModelConfig* config_;
  mutable std::unique_ptr<Table> table_;  // Sorted by descending score.
};

}  // namespace symphony

#endif  // SRC_MODEL_DISTRIBUTION_H_
