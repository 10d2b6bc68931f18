// symbench: runs one workload of the repository benchmark.
//
//   symbench --workload <rag|chat_burst|agent_failover> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>]
//   symbench --calibrate <workload>
//
// A run repeats the workload (set-up + Simulator::Run) until `--seconds` of
// wall-clock time have passed, at least kMinReps times. Virtual-time metrics
// are deterministic for a seed, so every repetition must reproduce the first
// one exactly; host metrics (setup_s, run_s) are medians of CPU times.
// With --trace 1 the repetitions alternate between untraced and traced runs:
// the per-layer metrics come from them, plus trace.overhead_ratio.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics of the selected mode, each {"value", "unit"}.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace symbench {
namespace {

constexpr int kMinReps = 3;
// Set-up takes milliseconds; extra set-up-only repetitions steady its median.
constexpr size_t kSetupSamples = 15;

struct Workload {
  const char* name;
  WorkloadFn run;
  void (*calibrate)();
};

constexpr Workload kWorkloads[] = {
    {"rag", RunRag, CalibrateRag},
    {"chat_burst", RunChatBurst, CalibrateChatBurst},
    {"agent_failover", RunAgentFailover, CalibrateAgentFailover},
};

double Median(std::vector<double> values) {
  return TakePercentile(std::move(values), 0.5).value;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintReport(const char* workload, uint64_t seed, const RunResult& r) {
  const Summary& s = r.summary;
  std::printf("workload %s seed %" PRIu64 "\n", workload, seed);
  std::printf(
      "  requests: offered %" PRIu64 " (measured %" PRIu64
      ")  succeeded %" PRIu64
      "  shed %" PRIu64 "  expired %" PRIu64 " (queue %" PRIu64
      ", deadline %" PRIu64 ")  failed %" PRIu64 "  fail_ratio %.6f\n",
      s.offered, s.measured, s.succeeded, s.rejected,
      s.shed_expired + s.deadline_expired, s.shed_expired, s.deadline_expired,
      s.failed, s.fail_ratio);
  auto pct = [](const char* name, const Percentile& p) {
    std::printf("  %-9s %12.4f ms  (n=%" PRIu64 ", beyond=%" PRIu64 ")\n", name,
                p.value, p.samples, p.beyond);
  };
  pct("ttft_p50", s.ttft_p50);
  pct("ttft_p99", s.ttft_p99);
  pct("tbt_p50", s.tbt_p50);
  pct("tbt_p99", s.tbt_p99);
  pct("e2e_p50", s.e2e_p50);
  pct("e2e_p99", s.e2e_p99);
  std::printf("  goodput %.4f req/s (%" PRIu64 " within limits)  output %.2f "
              "tok/s  makespan %.3f s\n",
              s.goodput_rps, s.good, s.output_tok_s,
              symphony::ToSeconds(r.makespan));
}

// A p99 needs at least ten samples beyond it to mean anything.
std::string CheckPercentiles(const Summary& s) {
  const std::pair<const char*, const Percentile*> kTails[] = {
      {"ttft_p99", &s.ttft_p99}, {"tbt_p99", &s.tbt_p99},
      {"e2e_p99", &s.e2e_p99}};
  for (const auto& [name, p] : kTails) {
    if (p->beyond < 10) {
      return std::string(name) + " has fewer than 10 samples beyond it";
    }
  }
  return "";
}

int Usage() {
  std::fprintf(stderr,
               "usage: symbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n"
               "       symbench --calibrate <name>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string calibrate;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--calibrate") {
      calibrate = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name || calibrate == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (!calibrate.empty()) {
    workload->calibrate();
    return 0;
  }

  std::vector<double> setup_s, run_s, traced_run_s;
  std::string error;
  RunResult first;
  RunResult traced;
  std::unique_ptr<BenchTrace> kept_trace;  // The first traced run's trace.
  Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    bool traced_rep = trace == 1 && rep % 2 == 1;
    auto bench_trace = traced_rep ? std::make_unique<BenchTrace>() : nullptr;
    RunResult r = workload->run(
        seed, RunOptions{.trace = bench_trace.get(), .check = rep == 0});
    if (rep == 0) {
      error = r.check_error;
      if (error.empty()) {
        error = CheckPercentiles(r.summary);
      }
    } else if (r.fingerprint != first.fingerprint && error.empty()) {
      error = traced_rep ? "traced run diverged from the untraced run"
                         : "repeated run diverged from the first run";
    }
    setup_s.push_back(r.setup_s);
    (traced_rep ? traced_run_s : run_s).push_back(r.run_s);
    if (rep == 0) {
      first = std::move(r);
    } else if (traced_rep && traced_run_s.size() == 1) {
      traced = std::move(r);
      kept_trace = std::move(bench_trace);
    }
    int done = rep + 1;
    if (done >= (trace == 1 ? 2 * kMinReps : kMinReps) &&
        SecondsSince(start) >= seconds && (trace == 0 || done % 2 == 0)) {
      break;
    }
  }

  while (setup_s.size() < kSetupSamples) {
    setup_s.push_back(
        workload->run(seed, RunOptions{.setup_only = true}).setup_s);
  }

  PrintReport(workload->name, seed, first);
  const Summary& s = first.summary;
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"run_s", Median(run_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"ttft_p50_ms", s.ttft_p50.value, "ms"},
        {"ttft_p99_ms", s.ttft_p99.value, "ms"},
        {"tbt_p50_ms", s.tbt_p50.value, "ms"},
        {"tbt_p99_ms", s.tbt_p99.value, "ms"},
        {"e2e_p50_ms", s.e2e_p50.value, "ms"},
        {"e2e_p99_ms", s.e2e_p99.value, "ms"},
        {"goodput_rps", s.goodput_rps, "req/s"},
        {"output_tok_s", s.output_tok_s, "tok/s"},
        {"success_ratio", 1.0 - s.fail_ratio, "ratio"},
    };
  } else {
    double untraced = Median(run_s);
    metrics = traced.layers;
    for (Metric& m : metrics) {
      // Host cost per event is the untraced run's; the traced run also
      // dispatches the sampler events.
      if (m.name == "sim.events") {
        m.value = static_cast<double>(first.events);
      } else if (m.name == "sim.host_ns_per_event") {
        m.value = untraced * 1e9 / static_cast<double>(first.events);
      }
    }
    metrics.push_back({"trace.overhead_ratio",
                       Median(traced_run_s) / untraced, "ratio"});
    if (!trace_out.empty()) {
      std::FILE* file = std::fopen(trace_out.c_str(), "w");
      bool written = file != nullptr && kept_trace->WriteChromeJson(file);
      if (file != nullptr && std::fclose(file) != 0) {
        written = false;
      }
      if (!written) {
        error = "cannot write " + trace_out;
      }
    }
  }
  std::printf("  host: setup_s median %.6f over %zu set-ups, run_s median "
              "%.6f over %zu runs\n",
              Median(setup_s), setup_s.size(), Median(run_s), run_s.size());
  if (!error.empty()) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += error.empty() ? "true" : "false";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                s.offered, s.failed + (error.empty() ? 0 : 1));
  json += buffer;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buffer;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace symbench

int main(int argc, char** argv) { return symbench::Main(argc, argv); }
