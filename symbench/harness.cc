#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace symbench {

using symphony::ToMillis;
using symphony::ToSeconds;

namespace {

double Quantile(std::vector<double> values, double q) {
  return TakePercentile(std::move(values), q).value;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double LayerValue(const Layers& layers, const std::string& name) {
  for (const Metric& m : layers) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

double BenchTrace::QueueDepthP99() const {
  std::vector<double> depths;
  depths.reserve(samples_.size());
  for (const Sample& s : samples_) {
    depths.push_back(s.queue_depth);
  }
  return Quantile(std::move(depths), 0.99);
}

double BenchTrace::GpuPagesPeak() const {
  double peak = 0.0;
  for (const Sample& s : samples_) {
    peak = std::max(peak, s.gpu_pages);
  }
  return peak;
}

double BenchTrace::KvHostUsP50() const {
  return Quantile(kv_host_ns_, 0.50) / 1000.0;
}

bool BenchTrace::WriteChromeJson(std::FILE* out) const {
  bool first = true;
  auto event = [&](const char* text) {
    std::fputs(first ? "{\"traceEvents\":[\n" : ",\n", out);
    first = false;
    std::fputs(text, out);
  };
  char buffer[320];
  // Request span ids are 1..N (request index + 1); child spans follow.
  for (size_t i = 0; i < records_.size(); ++i) {
    const RequestRecord& r = records_[i];
    if (r.finished == kUnset) {
      continue;
    }
    std::snprintf(buffer, sizeof(buffer),
                  "{\"ph\":\"X\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"request\",\"args\":{\"req\":%zu,"
                  "\"span\":%zu,\"parent\":0}}",
                  i, static_cast<double>(r.arrival) / 1e3,
                  static_cast<double>(r.finished - r.arrival) / 1e3, i, i + 1);
    event(buffer);
  }
  for (size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"ph\":\"X\",\"pid\":0,\"tid\":%" PRIu64
                  ",\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\",\"args\":{"
                  "\"req\":%" PRIu64 ",\"span\":%zu,\"parent\":%" PRIu64 "}}",
                  s.req, static_cast<double>(s.start) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, s.name, s.req,
                  records_.size() + k + 1, s.req + 1);
    event(buffer);
  }
  for (const Sample& s : samples_) {
    std::snprintf(buffer, sizeof(buffer),
                  "{\"ph\":\"C\",\"pid\":0,\"ts\":%.3f,\"name\":\"sampler\","
                  "\"args\":{\"queue_depth\":%.0f,\"gpu_pages\":%.0f}}",
                  static_cast<double>(s.at) / 1e3, s.queue_depth, s.gpu_pages);
    event(buffer);
  }
  // Splice each recorder's event array in under its own pid.
  for (size_t i = 0; i < recorders_.size(); ++i) {
    std::string json = recorders_[i]->ToChromeJson();
    size_t begin = json.find('[');
    size_t end = json.rfind("\n],");
    if (begin == std::string::npos || end == std::string::npos ||
        end <= begin + 2) {
      continue;
    }
    std::string events = json.substr(begin + 2, end - begin - 2);
    std::string pid = "\"pid\":" + std::to_string(i + 1) + ",";
    for (size_t at = events.find("\"pid\":1,"); at != std::string::npos;
         at = events.find("\"pid\":1,", at + pid.size())) {
      events.replace(at, 8, pid);
    }
    event(events.c_str());
  }
  std::fputs(first ? "{\"traceEvents\":[\n]}\n" : "\n]}\n", out);
  return std::ferror(out) == 0;
}

void StartPeriodic(Simulator* sim, SimDuration period,
                   std::function<bool()> active, std::function<void()> fn) {
  auto tick = std::make_shared<std::function<void()>>();
  // The event holds the only strong reference; the lambda refers to itself
  // weakly so the chain is freed when it stops.
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [sim, period, weak, active = std::move(active), fn = std::move(fn)] {
    if (!active()) {
      return;
    }
    fn();
    if (auto self = weak.lock()) {
      sim->ScheduleAfter(period, [self] { (*self)(); });
    }
  };
  sim->ScheduleAfter(period, [tick] { (*tick)(); });
}

symphony::StatusOr<KvHandle> ForkNamed(LipContext& ctx, const std::string& path,
                                       BenchTrace* trace) {
  if (!TimedKv(trace, [&] { return ctx.kv_exists(path); })) {
    return symphony::NotFoundError(path);
  }
  symphony::StatusOr<KvHandle> shared =
      TimedKv(trace, [&] { return ctx.kv_open(path); });
  if (!shared.ok()) {
    return shared.status();
  }
  symphony::StatusOr<KvHandle> fork =
      TimedKv(trace, [&] { return ctx.kv_fork(*shared); });
  (void)TimedKv(trace, [&] { return ctx.kv_close(*shared); });
  return fork;
}

void PublishNamed(LipContext& ctx, KvHandle kv, const std::string& path,
                  BenchTrace* trace) {
  if (TimedKv(trace, [&] { return ctx.kv_exists(path); })) {
    return;
  }
  symphony::StatusOr<KvHandle> copy =
      TimedKv(trace, [&] { return ctx.kv_fork(kv); });
  if (!copy.ok()) {
    return;
  }
  if (TimedKv(trace, [&] { return ctx.kv_link(*copy, path); }).ok()) {
    (void)TimedKv(trace,
                  [&] { return ctx.kv_chmod(*copy, symphony::kModeShared); });
  }
  (void)TimedKv(trace, [&] { return ctx.kv_close(*copy); });
}

void SampleLoad(BenchTrace* trace, SimTime at,
                const std::vector<SymphonyServer*>& servers) {
  double depth = 0.0;
  double pages = 0.0;
  for (SymphonyServer* s : servers) {
    depth += static_cast<double>(s->scheduler().queue_depth());
    pages += static_cast<double>(s->kvfs().pool().stats().gpu_pages_used);
  }
  trace->AddSample(at, depth, pages);
}

std::vector<TokenId> GreedyReplay(const symphony::Model& model,
                                  symphony::HiddenState state,
                                  int32_t position,
                                  const std::vector<TokenId>& prompt,
                                  size_t answer_tokens) {
  for (TokenId t : prompt) {
    state = model.Advance(state, t, position++);
  }
  std::vector<TokenId> answer;
  while (answer.size() < answer_tokens) {
    TokenId next = model.Predict(state).Argmax();
    answer.push_back(next);
    state = model.Advance(state, next, position++);
  }
  return answer;
}

void ServerLayers::Add(SymphonyServer& s) {
  const symphony::AdmissionStats& adm = s.admission_stats();
  admitted += adm.admitted;
  rejected += adm.rejected_full + adm.rejected_deadline;
  shed_expired += adm.shed_expired;
  const symphony::RuntimeStats& rt = s.runtime().stats();
  deadline_expired += rt.deadlines_expired;
  context_switches += rt.context_switches;
  threads_spawned += rt.threads_spawned;
  preds_submitted += rt.preds_submitted;
  lips_replayed += rt.lips_replayed;
  tokens_imported += rt.replay_tokens_imported;
  tokens_recomputed += rt.replay_tokens_recomputed;
  divergences += rt.replay_divergences;
  const symphony::InferenceSchedulerStats& sc = s.scheduler().stats();
  batches += sc.batches;
  prefill_tokens += sc.prefill_tokens_batched;
  decode_tokens += sc.decode_tokens_batched;
  memory_requeues += sc.memory_requeues;
  cancelled += sc.cancelled;
  const std::vector<double>& waits = s.scheduler().queue_waits_ms().samples();
  queue_waits_ms.insert(queue_waits_ms.end(), waits.begin(), waits.end());
  const symphony::DeviceStats& dev = s.device().stats();
  batch_items += dev.items;
  busy += dev.busy_time;
  transfer += dev.transfer_time;
  new_tokens += dev.new_tokens;
  transfer_bytes += dev.transfer_bytes;
  const symphony::KvfsStats& kv = s.kvfs().stats();
  forks += kv.forks;
  offloaded_pages += kv.offloaded_pages;
  restored_pages += kv.restored_pages;
  evicted_files += kv.evicted_files;
  cow_copies += s.kvfs().pool().stats().cow_copies;
  const symphony::ToolServiceStats& tools = s.tool_stats();
  tool_calls += tools.attempts;
  tool_retries += tools.retries;
  tool_failures += tools.failures;
}

Layers CollectLayers(const RunResult& run, const ServerLayers& sv,
                     const ClusterLayers& cl, double cache_hit_ratio,
                     const BenchTrace* trace) {
  const Summary& s = run.summary;
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  double makespan_s = ToSeconds(run.makespan);
  uint64_t dedup_base = cl.store_published_bytes + cl.store_deduped_bytes;
  return Layers{
      {"sim.events", n(run.events)},
      {"sim.host_ns_per_event", Ratio(run.run_s * 1e9, n(run.events)), "ns"},
      {"sim.virtual_s", makespan_s, "s"},
      {"serve.admitted", n(sv.admitted)},
      {"serve.rejected", n(sv.rejected)},
      {"serve.shed_expired", n(sv.shed_expired)},
      {"serve.deadline_expired", n(sv.deadline_expired)},
      {"serve.admission_wait_p50_ms", s.admission_p50.value, "ms"},
      {"serve.admission_wait_p99_ms", s.admission_p99.value, "ms"},
      {"serve.useful_token_ratio", Ratio(n(s.useful_tokens), n(sv.new_tokens)),
       "ratio"},
      {"serve.fail_ratio", s.fail_ratio, "ratio"},
      {"runtime.context_switches", n(sv.context_switches)},
      {"runtime.threads_spawned", n(sv.threads_spawned)},
      {"runtime.preds_submitted", n(sv.preds_submitted)},
      {"sched.queue_wait_p50_ms", Quantile(sv.queue_waits_ms, 0.50), "ms"},
      {"sched.queue_wait_p99_ms", Quantile(sv.queue_waits_ms, 0.99), "ms"},
      {"sched.queue_depth_p99", trace ? trace->QueueDepthP99() : 0.0},
      {"sched.batches", n(sv.batches)},
      {"sched.batch_requests_mean", Ratio(n(sv.batch_items), n(sv.batches))},
      {"sched.prefill_tokens", n(sv.prefill_tokens), "tokens"},
      {"sched.decode_tokens", n(sv.decode_tokens), "tokens"},
      {"sched.prefill_tokens_per_request",
       Ratio(n(sv.prefill_tokens), n(s.offered)), "tokens"},
      {"sched.memory_requeues", n(sv.memory_requeues)},
      {"sched.cancelled", n(sv.cancelled)},
      {"gpu.busy_s", ToSeconds(sv.busy), "s"},
      {"gpu.utilization",
       Ratio(ToSeconds(sv.busy), makespan_s * n(cl.replicas)), "ratio"},
      {"gpu.new_tokens", n(sv.new_tokens), "tokens"},
      {"gpu.transfer_s", ToSeconds(sv.transfer), "s"},
      {"gpu.transfer_bytes", n(sv.transfer_bytes), "bytes"},
      {"kvfs.cache_hit_ratio", cache_hit_ratio, "ratio"},
      {"kvfs.forks", n(sv.forks)},
      {"kvfs.offloaded_pages", n(sv.offloaded_pages), "pages"},
      {"kvfs.restored_pages", n(sv.restored_pages), "pages"},
      {"kvfs.evicted_files", n(sv.evicted_files)},
      {"kvfs.cow_copies", n(sv.cow_copies), "pages"},
      {"kvfs.gpu_pages_peak", trace ? trace->GpuPagesPeak() : 0.0, "pages"},
      {"kvfs.sync_host_us_p50", trace ? trace->KvHostUsP50() : 0.0, "us"},
      {"tools.calls", n(sv.tool_calls)},
      {"tools.retries", n(sv.tool_retries)},
      {"tools.failures", n(sv.tool_failures)},
      {"net.transfers", n(cl.net_transfers)},
      {"net.payload_bytes", n(cl.net_payload_bytes), "bytes"},
      {"store.published_bytes", n(cl.store_published_bytes), "bytes"},
      {"store.dedup_ratio", Ratio(n(cl.store_deduped_bytes), n(dedup_base)),
       "ratio"},
      {"store.fetched_bytes", n(cl.store_fetched_bytes), "bytes"},
      {"store.warm_imports", n(cl.warm_imports)},
      {"recovery.failovers", n(cl.failovers)},
      {"recovery.lips_replayed", n(sv.lips_replayed)},
      {"recovery.tokens_imported", n(sv.tokens_imported), "tokens"},
      {"recovery.tokens_recomputed", n(sv.tokens_recomputed), "tokens"},
      {"recovery.stall_ms_max", s.stall_ms_max, "ms"},
      {"recovery.checkpoints", n(cl.checkpoints)},
      {"recovery.ship_bytes", n(cl.ship_bytes), "bytes"},
      {"recovery.divergences", n(sv.divergences)},
      {"ctrl.heartbeats_sent", n(cl.heartbeats_sent)},
      {"ctrl.detection_ms", cl.detection_ms, "ms"},
      {"ctrl.false_suspicions", n(cl.false_suspicions)},
      {"stage.admission_ms_mean", s.stage_admission_ms_mean, "ms"},
      {"stage.pred_ms_mean", s.stage_pred_ms_mean, "ms"},
      {"stage.tool_ms_mean", s.stage_tool_ms_mean, "ms"},
      {"stage.other_ms_mean", s.stage_other_ms_mean, "ms"},
  };
}

}  // namespace symbench
