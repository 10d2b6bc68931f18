// Figure 3 reproduction: RAG serving, Symphony vs vLLM-like vs TGI-like.
//
// Left panel:  normalized mean end-to-end latency per generated token as the
//              request rate sweeps, at a fixed Pareto index.
// Right panel: normalized throughput as the Pareto index sweeps, at a fixed
//              (high) request rate. The paper reports Symphony achieving up
//              to ~7x vLLM's throughput when the Pareto index is small.
//
// Workload (paper §5): 100 documents x 3000 tokens; a request picks a topic
// by Pareto-index-controlled popularity, fetches the document, and generates
// an answer. The Symphony LIP retains KV for the top-20 most popular topics
// as named KVFS files; the baselines run the identical token stream as
// prompt completions on the same simulated A100 + Llama-13B cost model.
// With --chunked, Symphony's scheduler runs chunked prefill (512-token
// chunks) + decode-priority packing, making the comparison apples-to-apples
// with the vLLM-like baseline's built-in 2048-token chunked prefill.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/workload/rag.h"

namespace symphony {
namespace {

bool g_chunked = false;

RagConfig BaseConfig() {
  RagConfig config;
  config.num_docs = 100;
  config.doc_tokens = 3000;
  config.query_tokens = 24;
  config.answer_tokens = 32;
  config.num_requests = 350;
  config.cache_top_k = 20;
  config.max_active = 16;
  return config;
}

struct SystemResults {
  RagRunResult symphony;
  RagRunResult vllm;
  RagRunResult tgi;
};

SystemResults RunAll(const RagConfig& config) {
  SystemResults results;
  ServerOptions symphony_options;  // Llama-13B on A100, eager batching.
  if (g_chunked) {
    symphony_options.scheduler.prefill_chunk_tokens = 512;
  }
  // Symphony admits a few more concurrent requests than the baselines' 16
  // slots: forked KV files share document pages, so the private footprint
  // per request is far below a baseline sequence's 3.1k-token allocation.
  RagConfig symphony_config = config;
  symphony_config.max_active = 20;
  results.symphony = RunRagOnSymphony(symphony_config, symphony_options);
  results.vllm = RunRagOnBaseline(config, PromptServer::VllmLike());
  results.tgi = RunRagOnBaseline(config, PromptServer::TgiLike());
  return results;
}

void LatencyVsRate() {
  BenchTable table({"req/s", "symphony", "vllm-like", "tgi-like", "sym_ms/tok",
                    "vllm_ms/tok", "tgi_ms/tok", "sym_hit%"});
  const std::vector<double> rates = {0.5, 1.0, 2.0, 4.0, 8.0};
  double norm = 0.0;
  for (double rate : rates) {
    RagConfig config = BaseConfig();
    config.pareto_index = 0.8;
    config.request_rate = rate;
    SystemResults r = RunAll(config);
    if (norm == 0.0) {
      norm = r.symphony.mean_latency_per_token_ms;  // Normalize to Symphony @ lowest rate.
    }
    double hit_rate = 100.0 * static_cast<double>(r.symphony.cache_hits) /
                      static_cast<double>(r.symphony.completed);
    table.AddRow({Fmt(rate), Fmt(r.symphony.mean_latency_per_token_ms / norm),
                  Fmt(r.vllm.mean_latency_per_token_ms / norm),
                  Fmt(r.tgi.mean_latency_per_token_ms / norm),
                  Fmt(r.symphony.mean_latency_per_token_ms),
                  Fmt(r.vllm.mean_latency_per_token_ms),
                  Fmt(r.tgi.mean_latency_per_token_ms), Fmt(hit_rate, 1)});
  }
  table.Print(
      "Figure 3 (left): normalized mean E2E latency per generated token vs "
      "request rate (Pareto index 0.8; normalized to Symphony @ 0.5 req/s)");
}

void ThroughputVsPareto() {
  BenchTable table({"pareto", "symphony", "vllm-like", "tgi-like", "sym/vllm",
                    "sym/tgi", "sym_tok/s", "vllm_tok/s", "tgi_tok/s",
                    "sym_hit%", "vllm_hit%"});
  const std::vector<double> indices = {0.2, 0.3, 0.5, 0.8, 1.2, 2.0, 4.0};
  for (double index : indices) {
    RagConfig config = BaseConfig();
    config.pareto_index = index;
    config.request_rate = 12.0;  // Offered load beyond miss-path capacity.
    SystemResults r = RunAll(config);
    double norm = r.tgi.throughput_tok_s;  // Normalize to TGI per row.
    double vllm_hits = 100.0 * static_cast<double>(r.vllm.cache_hits) /
                       static_cast<double>(r.vllm.completed);
    double sym_hits = 100.0 * static_cast<double>(r.symphony.cache_hits) /
                      static_cast<double>(r.symphony.completed);
    table.AddRow({Fmt(index), Fmt(r.symphony.throughput_tok_s / norm),
                  Fmt(r.vllm.throughput_tok_s / norm), Fmt(1.0),
                  Fmt(r.symphony.throughput_tok_s / r.vllm.throughput_tok_s),
                  Fmt(r.symphony.throughput_tok_s / r.tgi.throughput_tok_s),
                  Fmt(r.symphony.throughput_tok_s, 1),
                  Fmt(r.vllm.throughput_tok_s, 1), Fmt(r.tgi.throughput_tok_s, 1),
                  Fmt(sym_hits, 1), Fmt(vllm_hits, 1)});
  }
  table.Print(
      "Figure 3 (right): normalized throughput vs Pareto index (12 req/s "
      "offered; normalized to TGI-like per row)");
}

}  // namespace
}  // namespace symphony

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chunked") == 0) {
      symphony::g_chunked = true;
    } else {
      std::fprintf(stderr, "usage: %s [--chunked]\n", argv[0]);
      return 2;
    }
  }
  std::printf("bench_fig3_rag: paper Figure 3 — prompt caching via LIPs%s\n",
              symphony::g_chunked
                  ? " (Symphony: chunked prefill + decode priority)"
                  : "");
  symphony::LatencyVsRate();
  symphony::ThroughputVsPareto();
  return 0;
}
