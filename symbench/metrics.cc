#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace symbench {

using symphony::ToMillis;
using symphony::ToSeconds;

Percentile TakePercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) {
    return p;
  }
  std::sort(samples.begin(), samples.end());
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

void StampOnce(SimTime* slot, SimTime at) {
  if (*slot == kUnset) {
    *slot = at;
  }
}

void StampStart(RequestRecord& record, SimTime at) {
  if (record.started == kUnset) {
    record.started = at;
  } else {
    record.restarts.push_back(at);
  }
}

void StampToken(RequestRecord& record, size_t index, uint32_t generation,
                SimTime at) {
  if (index >= record.tokens.size()) {
    record.tokens.resize(index + 1);
  }
  TokenStamp& stamp = record.tokens[index];
  if (stamp.at == kUnset) {
    stamp.at = at;
    stamp.generation = generation;
  }
}

StageSplit SplitStages(const RequestRecord& record) {
  StageSplit split;
  if (record.started == kUnset || record.finished == kUnset) {
    return split;
  }
  split.admission = record.started - record.arrival;
  split.pred = record.pred;
  split.tool = record.tool;
  split.other = (record.finished - record.arrival) - split.admission -
                split.pred - split.tool;
  return split;
}

bool MetLimits(const RequestRecord& record, const Limits& limits) {
  if (record.outcome != Outcome::kOk || record.finished == kUnset ||
      record.finished - record.arrival > limits.e2e) {
    return false;
  }
  if (!record.observe_tokens) {
    return true;
  }
  return !record.tokens.empty() && record.tokens[0].at != kUnset &&
         record.tokens[0].at - record.arrival <= limits.ttft;
}

SimDuration FailoverStall(const RequestRecord& record) {
  SimDuration worst = 0;
  for (SimTime restart : record.restarts) {
    SimTime before = kUnset;
    SimTime after = kUnset;
    for (const TokenStamp& stamp : record.tokens) {
      if (stamp.at == kUnset) {
        continue;
      }
      if (stamp.at <= restart) {
        before = std::max(before, stamp.at);
      } else if (after == kUnset || stamp.at < after) {
        after = stamp.at;
      }
    }
    if (before != kUnset && after != kUnset) {
      worst = std::max(worst, after - before);
    }
  }
  return worst;
}

Summary Summarize(const std::vector<RequestRecord>& records,
                  const Limits& limits, SimDuration window,
                  SimDuration makespan) {
  Summary s;
  std::vector<double> ttft, tbt, e2e, admission;
  StageSplit stages;
  uint64_t staged = 0;
  for (const RequestRecord& r : records) {
    ++s.offered;
    s.generated += r.generated;
    s.stall_ms_max = std::max(s.stall_ms_max, ToMillis(FailoverStall(r)));
    switch (r.outcome) {
      case Outcome::kOk:
        ++s.succeeded;
        break;
      case Outcome::kRejected:
        ++s.rejected;
        break;
      case Outcome::kPending:
        ++s.shed_expired;
        break;
      case Outcome::kDeadlineExpired:
        ++s.deadline_expired;
        break;
      case Outcome::kFailed:
        ++s.failed;
        break;
    }
    if (MetLimits(r, limits)) {
      s.useful_tokens += r.work_tokens;
    }
    if (r.warmup) {
      continue;
    }
    ++s.measured;
    if (r.started != kUnset) {
      admission.push_back(ToMillis(r.started - r.arrival));
    }
    if (r.outcome != Outcome::kOk) {
      continue;
    }
    s.good += MetLimits(r, limits) ? 1 : 0;
    e2e.push_back(ToMillis(r.finished - r.arrival));
    StageSplit split = SplitStages(r);
    stages.admission += split.admission;
    stages.pred += split.pred;
    stages.tool += split.tool;
    stages.other += split.other;
    ++staged;
    if (!r.observe_tokens || r.tokens.empty() || r.tokens[0].at == kUnset) {
      continue;
    }
    ttft.push_back(ToMillis(r.tokens[0].at - r.arrival));
    for (size_t i = 1; i < r.tokens.size(); ++i) {
      const TokenStamp& prev = r.tokens[i - 1];
      const TokenStamp& cur = r.tokens[i];
      if (prev.at != kUnset && cur.at != kUnset &&
          prev.generation == cur.generation) {
        tbt.push_back(ToMillis(cur.at - prev.at));
      }
    }
  }
  s.ttft_p50 = TakePercentile(ttft, 0.50);
  s.ttft_p99 = TakePercentile(ttft, 0.99);
  s.tbt_p50 = TakePercentile(tbt, 0.50);
  s.tbt_p99 = TakePercentile(std::move(tbt), 0.99);
  s.e2e_p50 = TakePercentile(e2e, 0.50);
  s.e2e_p99 = TakePercentile(std::move(e2e), 0.99);
  s.admission_p50 = TakePercentile(admission, 0.50);
  s.admission_p99 = TakePercentile(std::move(admission), 0.99);
  if (window > 0) {
    s.goodput_rps = static_cast<double>(s.good) / ToSeconds(window);
  }
  if (makespan > 0) {
    s.output_tok_s = static_cast<double>(s.generated) / ToSeconds(makespan);
  }
  if (s.offered > 0) {
    s.fail_ratio =
        static_cast<double>(s.rejected + s.shed_expired + s.deadline_expired +
                            s.failed) /
        static_cast<double>(s.offered);
  }
  if (staged > 0) {
    double n = static_cast<double>(staged);
    s.stage_admission_ms_mean = ToMillis(stages.admission) / n;
    s.stage_pred_ms_mean = ToMillis(stages.pred) / n;
    s.stage_tool_ms_mean = ToMillis(stages.tool) / n;
    s.stage_other_ms_mean = ToMillis(stages.other) / n;
  }
  return s;
}

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

}  // namespace

uint64_t Fingerprint(const std::vector<RequestRecord>& records) {
  uint64_t h = records.size();
  for (const RequestRecord& r : records) {
    h = Mix(h, static_cast<uint64_t>(r.arrival));
    h = Mix(h, static_cast<uint64_t>(r.outcome));
    h = Mix(h, static_cast<uint64_t>(r.started));
    h = Mix(h, static_cast<uint64_t>(r.finished));
    h = Mix(h, r.generated);
    h = Mix(h, static_cast<uint64_t>(r.pred));
    h = Mix(h, static_cast<uint64_t>(r.tool));
    for (SimTime restart : r.restarts) {
      h = Mix(h, static_cast<uint64_t>(restart));
    }
    for (const TokenStamp& t : r.tokens) {
      h = Mix(h, static_cast<uint64_t>(t.at));
      h = Mix(h, t.generation);
    }
  }
  return h;
}

}  // namespace symbench
