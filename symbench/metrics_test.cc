// Tests for the benchmark's own aggregation (metrics.h). Build and run with
//   cmake --build <dir> --target symbench_test && <dir>/symbench_test
// or `ctest` in the benchmark's build directory.
#include <cstdio>
#include <vector>

#include "metrics.h"

namespace symbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using symphony::Millis;

RequestRecord Completed(SimTime arrival, SimTime first_token, SimTime finish) {
  RequestRecord r;
  r.arrival = arrival;
  r.started = arrival;
  r.outcome = Outcome::kOk;
  r.finished = finish;
  StampToken(r, 0, 0, first_token);
  r.generated = 1;
  return r;
}

void PercentileReportsSampleCount() {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) {
    samples.push_back(i);
  }
  Percentile p99 = TakePercentile(samples, 0.99);
  EXPECT(p99.value == 990.0);
  EXPECT(p99.samples == 1000);
  EXPECT(p99.beyond == 10);
  Percentile p50 = TakePercentile(samples, 0.50);
  EXPECT(p50.value == 500.0);
  EXPECT(p50.beyond == 500);
  Percentile small = TakePercentile({3.0, 1.0, 2.0}, 0.99);
  EXPECT(small.value == 3.0);
  EXPECT(small.beyond == 0);
  Percentile empty = TakePercentile({}, 0.5);
  EXPECT(empty.samples == 0 && empty.value == 0.0);
}

void ShedAndExpiredRequestsAreMisses() {
  Limits limits{Millis(100), Millis(1000)};
  std::vector<RequestRecord> records;
  records.push_back(Completed(0, Millis(50), Millis(500)));     // Good.
  records.push_back(Completed(0, Millis(150), Millis(500)));    // Late TTFT.
  records.push_back(Completed(0, Millis(50), Millis(1500)));    // Late e2e.
  RequestRecord rejected;
  rejected.outcome = Outcome::kRejected;
  records.push_back(rejected);
  RequestRecord shed;  // Queued, dropped at dequeue: never finished.
  records.push_back(shed);
  RequestRecord expired = Completed(0, Millis(50), Millis(1000));
  expired.outcome = Outcome::kDeadlineExpired;
  records.push_back(expired);
  RequestRecord failed = Completed(0, Millis(50), Millis(200));
  failed.outcome = Outcome::kFailed;
  records.push_back(failed);

  Summary s = Summarize(records, limits, symphony::Seconds(2), Millis(1500));
  EXPECT(s.offered == 7);
  EXPECT(s.succeeded == 3);
  EXPECT(s.rejected == 1);
  EXPECT(s.shed_expired == 1);
  EXPECT(s.deadline_expired == 1);
  EXPECT(s.failed == 1);
  EXPECT(s.good == 1);
  EXPECT(s.goodput_rps == 0.5);
  EXPECT(s.fail_ratio == 4.0 / 7.0);
  // Latency percentiles cover completed requests only.
  EXPECT(s.e2e_p50.samples == 3);
  EXPECT(s.ttft_p99.samples == 3);

  // A request held to the e2e limit only (tokens not observed).
  RequestRecord unseen;
  unseen.arrival = 0;
  unseen.outcome = Outcome::kOk;
  unseen.finished = Millis(900);
  unseen.observe_tokens = false;
  EXPECT(MetLimits(unseen, limits));

  // Warm-up requests count toward fail_ratio but not toward goodput.
  records[0].warmup = true;
  records[3].warmup = true;
  Summary w = Summarize(records, limits, symphony::Seconds(2), Millis(1500));
  EXPECT(w.good == 0);
  EXPECT(w.measured == 5);
  EXPECT(w.fail_ratio == 4.0 / 7.0);
}

void FirstObservationWinsAcrossReplay() {
  RequestRecord r;
  r.arrival = 0;
  StampStart(r, Millis(1));
  for (int i = 0; i < 4; ++i) {
    StampToken(r, i, 0, Millis(10 * (i + 1)));  // 10, 20, 30, 40 ms.
  }
  // Crash, then a replay restarts the program at 100 ms; the journal hands
  // back tokens 0..3 immediately and the first live token lands at 150 ms.
  StampStart(r, Millis(100));
  for (int i = 0; i < 4; ++i) {
    StampToken(r, i, 0, Millis(100));
  }
  StampToken(r, 4, 0, Millis(150));
  EXPECT(r.started == Millis(1));
  EXPECT(r.restarts.size() == 1 && r.restarts[0] == Millis(100));
  EXPECT(r.tokens[0].at == Millis(10));
  EXPECT(r.tokens[3].at == Millis(40));
  EXPECT(FailoverStall(r) == Millis(110));

  SimTime finish = kUnset;
  StampOnce(&finish, Millis(200));
  StampOnce(&finish, Millis(300));
  EXPECT(finish == Millis(200));

  r.outcome = Outcome::kOk;
  r.finished = Millis(200);
  Summary s = Summarize({r}, Limits{Millis(100), Millis(1000)},
                        symphony::Seconds(1), Millis(200));
  // Gaps 10, 10, 10, 110: no near-zero sample from the replayed tokens.
  EXPECT(s.tbt_p50.samples == 4);
  EXPECT(s.tbt_p50.value == 10.0);
  EXPECT(s.tbt_p99.value == 110.0);
  EXPECT(s.stall_ms_max == 110.0);
  EXPECT(s.ttft_p50.samples == 1);

  // Gaps across generations (a tool wait between turns) are not TBT.
  RequestRecord turns;
  StampToken(turns, 0, 0, Millis(10));
  StampToken(turns, 1, 0, Millis(20));
  StampToken(turns, 2, 1, Millis(500));
  turns.outcome = Outcome::kOk;
  turns.started = 0;
  turns.finished = Millis(600);
  Summary t = Summarize({turns}, Limits{Millis(100), Millis(1000)},
                        symphony::Seconds(1), Millis(600));
  EXPECT(t.tbt_p50.samples == 1);
  EXPECT(t.tbt_p50.value == 10.0);
}

void StagesSumToEndToEnd() {
  RequestRecord r;
  r.arrival = Millis(1000);
  StampStart(r, Millis(1005));
  r.pred = Millis(50);
  r.tool = Millis(30);
  r.outcome = Outcome::kOk;
  r.finished = Millis(1100);
  StageSplit split = SplitStages(r);
  EXPECT(split.admission == Millis(5));
  EXPECT(split.pred == Millis(50));
  EXPECT(split.tool == Millis(30));
  EXPECT(split.other == Millis(15));
  EXPECT(split.admission + split.pred + split.tool + split.other ==
         r.finished - r.arrival);

  RequestRecord q = r;
  q.arrival = 0;
  q.started = Millis(40);
  q.finished = Millis(200);
  Summary s = Summarize({r, q}, Limits{Millis(1000), Millis(1000)},
                        symphony::Seconds(1), Millis(1100));
  double stages = s.stage_admission_ms_mean + s.stage_pred_ms_mean +
                  s.stage_tool_ms_mean + s.stage_other_ms_mean;
  EXPECT(stages == (100.0 + 200.0) / 2);
  EXPECT(s.stage_admission_ms_mean == (5.0 + 40.0) / 2);
}

}  // namespace
}  // namespace symbench

int main() {
  symbench::PercentileReportsSampleCount();
  symbench::ShedAndExpiredRequestsAreMisses();
  symbench::FirstObservationWinsAcrossReplay();
  symbench::StagesSumToEndToEnd();
  if (symbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", symbench::failures);
    return 1;
  }
  std::printf("symbench_test: all aggregation tests passed\n");
  return 0;
}
