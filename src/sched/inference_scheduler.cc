#include "src/sched/inference_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"

namespace symphony {

namespace {

// EWMA smoothing for the arrival-rate estimate.
constexpr double kRateEwmaAlpha = 0.2;
// Pause after a batch completes before launching the next one, so threads
// woken by the completed batch can resubmit and join it. Without this the
// client population splits into two alternating half-sized batches.
constexpr SimDuration kFormationDelay = Micros(100);
// A request with at most this many new tokens counts as a decode for
// decode-first packing, token-occupancy stats and the prefill-complete
// hook; continuations of a split prefill always count as prefill regardless
// of their tail size.
constexpr uint64_t kDecodeClassifyTokens = 8;

bool IsDecode(const PredRequest& request) {
  return request.chunk_done == 0 &&
         request.tokens.size() <= kDecodeClassifyTokens;
}

}  // namespace

std::vector<size_t> BatchPickOrder(const std::deque<PredRequest>& queue,
                                   const InferenceSchedulerOptions& options) {
  // The visit order, which is already sorted by phase.
  bool decode_first = options.prefill_chunk_tokens > 0;
  std::vector<size_t> order;
  order.reserve(queue.size());
  for (size_t i = 0; i < queue.size(); ++i) {
    if (!decode_first || IsDecode(queue[i])) {
      order.push_back(i);
    }
  }
  auto first_phase_end = static_cast<ptrdiff_t>(order.size());
  if (decode_first) {
    for (size_t i = 0; i < queue.size(); ++i) {
      if (!IsDecode(queue[i])) {
        order.push_back(i);
      }
    }
  }
  if (options.discipline == QueueDiscipline::kFifo) {
    return order;  // Every turn is 0.
  }
  // A continuation of a chunked prefill carries its original LIP, so a split
  // prefill still costs its LIP exactly one turn.
  std::vector<uint32_t> turn(queue.size());
  std::unordered_map<LipId, uint32_t> visited;
  for (size_t i : order) {
    turn[i] = visited[queue[i].lip]++;
  }
  auto by_turn = [&turn](size_t a, size_t b) { return turn[a] < turn[b]; };
  std::stable_sort(order.begin(), order.begin() + first_phase_end, by_turn);
  std::stable_sort(order.begin() + first_phase_end, order.end(), by_turn);
  return order;
}

InferenceScheduler::InferenceScheduler(Simulator* sim, Kvfs* kvfs,
                                       const Model* model, Device* device,
                                       std::unique_ptr<BatchPolicy> policy,
                                       InferenceSchedulerOptions options)
    : sim_(sim),
      kvfs_(kvfs),
      model_(model),
      device_(device),
      policy_(std::move(policy)),
      options_(options) {
  assert(policy_ != nullptr);
}

StatusOr<uint64_t> InferenceScheduler::Validate(const PredRequest& request) {
  SYMPHONY_ASSIGN_OR_RETURN(uint64_t length, kvfs_->Length(request.kv));
  for (size_t i = 0; i < request.positions.size(); ++i) {
    int64_t expected = static_cast<int64_t>(length) + static_cast<int64_t>(i);
    if (request.positions[i] != expected) {
      return InvalidArgumentError(
          "pred positions must continue the kv file (expected " +
          std::to_string(expected) + ", got " +
          std::to_string(request.positions[i]) + ")");
    }
  }
  return length;
}

void InferenceScheduler::Submit(PredRequest request) {
  ++stats_.submitted;
  // A fresh submit supersedes any earlier cancellation of this LIP (journal
  // replay re-executes a recovered LIP through the live scheduler).
  cancelled_lips_.erase(request.lip);
  SimTime now = sim_->now();
  if (last_submit_ > 0) {
    double gap_s = std::max(ToSeconds(now - last_submit_), 1e-6);
    double inst_rate = 1.0 / gap_s;
    rate_per_sec_ = rate_per_sec_ == 0.0
                        ? inst_rate
                        : (1.0 - kRateEwmaAlpha) * rate_per_sec_ +
                              kRateEwmaAlpha * inst_rate;
  }
  last_submit_ = now;
  queue_.push_back(std::move(request));
  MaybeLaunch();
}

void InferenceScheduler::MaybeLaunch() {
  if (recheck_event_ != 0) {
    sim_->Cancel(recheck_event_);
    recheck_event_ = 0;
  }
  if (device_->busy() || queue_.empty()) {
    return;
  }
  if (sim_->now() < next_launch_time_) {
    // Batch-formation window after a completion: wait for just-woken threads
    // to resubmit before launching.
    recheck_event_ = sim_->ScheduleAt(next_launch_time_, [this] {
      recheck_event_ = 0;
      MaybeLaunch();
    });
    return;
  }

  // The policy's est_batch_time describes the batch LaunchBatch would take
  // from the same order.
  std::vector<size_t> order = BatchPickOrder(queue_, options_);
  std::vector<WorkItem> items = ProspectiveItems(order);

  BatchPolicyInput input;
  input.queue_size = queue_.size();
  input.oldest_wait = sim_->now() - queue_.front().submit_time;
  input.arrival_rate_per_sec = rate_per_sec_;
  input.est_batch_time = device_->EstimateTime(items, 0);
  input.max_batch = options_.max_batch_requests;

  BatchDecision decision = policy_->ShouldLaunch(input);
  if (decision.launch) {
    LaunchBatch(order);
    return;
  }
  SimDuration delay = std::max<SimDuration>(decision.recheck_after, Micros(10));
  recheck_event_ = sim_->ScheduleAfter(delay, [this] {
    recheck_event_ = 0;
    MaybeLaunch();
  });
}

uint64_t InferenceScheduler::ChunkTake(const PredRequest& request) const {
  uint64_t take = request.tokens.size();
  if (options_.prefill_chunk_tokens > 0 &&
      take > options_.prefill_chunk_tokens) {
    take = options_.prefill_chunk_tokens;
  }
  return take;
}

void InferenceScheduler::RecordQueueWait(const PredRequest& request) {
  // Continuations of an already-launched chunked prefill keep the original
  // submit_time; only the original request samples the wait.
  if (request.chunk_done == 0) {
    queue_waits_ms_.Add(ToMillis(sim_->now() - request.submit_time));
  }
}

template <typename Add>
void InferenceScheduler::ForEachPick(const std::vector<size_t>& order,
                                     Add add) const {
  bool decode_first = options_.prefill_chunk_tokens > 0;
  size_t added = 0;
  uint64_t total_tokens = 0;
  for (size_t i : order) {
    if (added >= options_.max_batch_requests ||
        total_tokens >= options_.max_batch_tokens) {
      break;
    }
    // Read before `add`, which may move the request out of the queue.
    bool prefill_top_up = decode_first && !IsDecode(queue_[i]);
    std::optional<uint64_t> take = add(i);
    if (!take.has_value()) {
      continue;
    }
    ++added;
    total_tokens += *take;
    if (prefill_top_up) {
      break;  // Decode-first batches carry at most one prefill chunk.
    }
  }
}

std::vector<WorkItem> InferenceScheduler::ProspectiveItems(
    const std::vector<size_t>& order) const {
  std::vector<WorkItem> items;
  items.reserve(std::min(queue_.size(), options_.max_batch_requests));
  ForEachPick(order, [&](size_t i) -> std::optional<uint64_t> {
    uint64_t take = ChunkTake(queue_[i]);
    StatusOr<uint64_t> length = kvfs_->Length(queue_[i].kv);
    items.push_back(WorkItem{take, length.ok() ? *length : 0});
    return take;
  });
  return items;
}

void InferenceScheduler::LaunchBatch(const std::vector<size_t>& order) {
  struct BatchEntry {
    PredRequest request;
    uint64_t take;  // New tokens of this request executed by this batch.
  };
  auto batch = std::make_shared<std::vector<BatchEntry>>();
  std::vector<WorkItem> items;
  // Picked slots are masked and compacted after the loop (completion
  // callbacks never reenter the scheduler synchronously, but a mid-loop
  // push_back past the mask would be kept untouched).
  std::vector<char> picked(queue_.size(), 0);
  ForEachPick(order, [&](size_t i) -> std::optional<uint64_t> {
    picked[i] = 1;
    bool decode = IsDecode(queue_[i]);
    PredRequest request = std::move(queue_[i]);
    StatusOr<uint64_t> context = Validate(request);
    if (!context.ok()) {
      ++stats_.failed;
      RecordQueueWait(request);
      request.complete(PredResult{context.status(), {}});
      return std::nullopt;
    }
    // Bring the file fully on-device; the implied PCIe traffic is charged to
    // this batch below.
    Status restore = kvfs_->RestoreToGpu(request.kv);
    if (!restore.ok()) {
      if (restore.code() == StatusCode::kResourceExhausted) {
        (void)RequeueForMemory(request, restore);
      } else {
        ++stats_.failed;
        RecordQueueWait(request);
        request.complete(PredResult{restore, {}});
      }
      return std::nullopt;
    }
    RecordQueueWait(request);
    // Tokens a split prefill appended in earlier chunks are fresh compute,
    // not reused prefix.
    stats_.prefix_reuse_tokens +=
        *context - std::min<uint64_t>(*context, request.chunk_done);
    uint64_t take = ChunkTake(request);
    if (take < request.tokens.size() || request.chunk_done > 0) {
      ++stats_.prefill_chunks;
    }
    if (decode) {
      stats_.decode_tokens_batched += take;
    } else {
      stats_.prefill_tokens_batched += take;
    }
    items.push_back(WorkItem{take, *context});
    batch->push_back(BatchEntry{std::move(request), take});
    return take;
  });

  // Compact the queue in place, toward the back: drop picked slots and keep
  // everything else in order (including entries appended past the mask
  // while completing failures above). A batch taken from the front of the
  // queue moves no request.
  size_t kept_from = queue_.size();
  for (size_t i = queue_.size(); i-- > 0;) {
    if (i < picked.size() && picked[i] != 0) {
      continue;
    }
    if (--kept_from != i) {
      queue_[kept_from] = std::move(queue_[i]);
    }
  }
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(kept_from));

  if (batch->empty()) {
    // Everything in this round failed validation; look again.
    MaybeLaunch();
    return;
  }

  uint64_t transfer_bytes = kvfs_->TakePendingTransferBytes();
  ++stats_.batches;
  device_->Execute(std::move(items), transfer_bytes, [this, batch] {
    next_launch_time_ = sim_->now() + kFormationDelay;
    for (BatchEntry& entry : *batch) {
      CompleteRequest(entry.request, entry.take);
    }
    MaybeLaunch();
  });
}

void InferenceScheduler::CancelLip(LipId lip) {
  std::deque<PredRequest> kept;
  for (PredRequest& request : queue_) {
    if (request.lip != lip) {
      kept.push_back(std::move(request));
      continue;
    }
    ++stats_.cancelled;
    RecordQueueWait(request);
    request.complete(PredResult{
        DeadlineExceededError("pred cancelled: lip deadline expired"), {}});
  }
  queue_ = std::move(kept);
  // Requests sleeping out a memory-retry backoff are caught when their
  // retry event fires (see RequeueForMemory).
  cancelled_lips_.insert(lip);
}

bool InferenceScheduler::RequeueForMemory(PredRequest& request, const Status& why) {
  if (request.memory_retries >= options_.max_memory_retries) {
    ++stats_.failed;
    RecordQueueWait(request);
    request.complete(PredResult{why, {}});
    return false;
  }
  ++request.memory_retries;
  ++stats_.memory_requeues;
  stats_.max_memory_retry_depth =
      std::max(stats_.max_memory_retry_depth, request.memory_retries);
  // Exponential backoff: base * 2^(retries-1), capped. Shift width is bounded
  // by the cap check below (cap/base fits in far fewer than 63 bits).
  SimDuration backoff = options_.memory_retry_backoff;
  for (uint32_t i = 1; i < request.memory_retries && backoff < options_.memory_retry_backoff_cap; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.memory_retry_backoff_cap);
  auto retry = std::make_shared<PredRequest>(std::move(request));
  sim_->ScheduleAfter(backoff, [this, retry] {
    if (cancelled_lips_.count(retry->lip) != 0) {
      ++stats_.cancelled;
      RecordQueueWait(*retry);
      retry->complete(PredResult{
          DeadlineExceededError("pred cancelled: lip deadline expired"), {}});
      return;
    }
    queue_.push_back(std::move(*retry));
    MaybeLaunch();
  });
  return true;
}

void InferenceScheduler::CompleteRequest(PredRequest& request, uint64_t take) {
  // Re-validate: another LIP may have appended to a shared file while this
  // batch was executing.
  StatusOr<uint64_t> length = Validate(request);
  if (!length.ok()) {
    ++stats_.failed;
    request.complete(PredResult{length.status(), {}});
    return;
  }

  HiddenState state;
  if (*length == 0) {
    state = model_->InitialState();
  } else {
    StatusOr<HiddenState> tail = kvfs_->TailState(request.kv);
    if (!tail.ok()) {
      ++stats_.failed;
      request.complete(PredResult{tail.status(), {}});
      return;
    }
    state = *tail;
  }

  take = std::min<uint64_t>(take, request.tokens.size());
  std::vector<TokenRecord> records;
  records.reserve(take);
  std::vector<Distribution> dists;
  dists.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    state = model_->Advance(state, request.tokens[i], request.positions[i]);
    records.push_back(TokenRecord{request.tokens[i], request.positions[i], state});
    dists.push_back(model_->Predict(state));
  }

  Status append = kvfs_->Append(request.kv, records);
  if (!append.ok()) {
    if (append.code() == StatusCode::kResourceExhausted) {
      // The whole remaining request (this chunk included) bounces; the next
      // launch re-derives the chunk split.
      (void)RequeueForMemory(request, append);
      return;
    }
    ++stats_.failed;
    request.complete(PredResult{append, {}});
    return;
  }

  if (take < request.tokens.size()) {
    // A prefill chunk: bank its distributions and re-queue the remainder as
    // a position-contiguous continuation. The continuation keeps the
    // original submit time, LIP identity, and completion callback, so
    // fair-share, deadlines, and memory-requeue treat it as the one request
    // it is. Front of the queue: under FIFO the prefill finishes as early as
    // unchunked would; decode-first packing reorders around it anyway.
    if (request.chunk_dists == nullptr) {
      ++stats_.prefills_chunked;
      request.chunk_dists = std::make_shared<std::vector<Distribution>>();
    }
    request.chunk_dists->insert(request.chunk_dists->end(),
                                std::make_move_iterator(dists.begin()),
                                std::make_move_iterator(dists.end()));
    request.chunk_done += take;
    request.tokens.erase(request.tokens.begin(),
                         request.tokens.begin() + static_cast<ptrdiff_t>(take));
    request.positions.erase(
        request.positions.begin(),
        request.positions.begin() + static_cast<ptrdiff_t>(take));
    if (cancelled_lips_.count(request.lip) != 0) {
      // The LIP's deadline expired while this chunk was executing; the
      // continuation dies the way a queued request would have.
      ++stats_.cancelled;
      request.complete(PredResult{
          DeadlineExceededError("pred cancelled: lip deadline expired"), {}});
      return;
    }
    queue_.push_front(std::move(request));
    return;
  }

  ++stats_.completed;
  PredResult result;
  result.status = Status::Ok();
  if (request.chunk_dists != nullptr) {
    // Final chunk: deliver the banked distributions of every earlier chunk
    // ahead of this one's — one result, bit-identical to unchunked.
    result.dists = std::move(*request.chunk_dists);
    request.chunk_dists.reset();
    result.dists.insert(result.dists.end(),
                        std::make_move_iterator(dists.begin()),
                        std::make_move_iterator(dists.end()));
  } else {
    result.dists = std::move(dists);
  }
  uint64_t pred_tokens = request.chunk_done + take;
  uint64_t context_after = *length + take;
  LipId lip = request.lip;
  request.complete(std::move(result));
  if (prefill_complete_hook_ != nullptr &&
      pred_tokens > kDecodeClassifyTokens) {
    prefill_complete_hook_(lip, context_after);
  }
}

}  // namespace symphony
