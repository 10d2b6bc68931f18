#include "src/sched/inference_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/logging.h"

namespace symphony {

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
                        : (1.0 - options_.rate_ewma_alpha) * rate_per_sec_ +
                              options_.rate_ewma_alpha * inst_rate;
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

  // Build the prospective batch profile for the policy in the same order
  // LaunchBatch would pick (discipline, decode priority, chunk caps), so
  // est_batch_time describes the batch that actually launches.
  std::vector<WorkItem> items = ProspectiveItems();

  BatchPolicyInput input;
  input.queue_size = queue_.size();
  input.oldest_wait = sim_->now() - queue_.front().submit_time;
  input.arrival_rate_per_sec = rate_per_sec_;
  input.est_batch_time = device_->EstimateTime(items, 0);
  input.max_batch = options_.max_batch_requests;

  BatchDecision decision = policy_->ShouldLaunch(input);
  if (decision.launch) {
    LaunchBatch();
    return;
  }
  SimDuration delay = std::max<SimDuration>(decision.recheck_after, Micros(10));
  recheck_event_ = sim_->ScheduleAfter(delay, [this] {
    recheck_event_ = 0;
    MaybeLaunch();
  });
}

// Picks the next un-picked request index under the active discipline: FIFO
// takes arrival order; fair share takes the oldest request among LIPs with
// the fewest picks so far this batch. A continuation of a chunked prefill
// carries its original LIP, so a split prefill still costs its LIP exactly
// one fair-share turn per batch.
size_t InferenceScheduler::PickNext(
    const std::unordered_map<LipId, uint32_t>& taken,
    const std::vector<char>& picked, bool decode_only) const {
  size_t best = kNoPick;
  uint32_t best_count = UINT32_MAX;
  for (size_t i = 0; i < picked.size(); ++i) {
    if (picked[i] != 0 || (decode_only && !IsDecode(queue_[i]))) {
      continue;
    }
    if (options_.discipline == QueueDiscipline::kFifo) {
      return i;
    }
    auto it = taken.find(queue_[i].lip);
    uint32_t count = it == taken.end() ? 0 : it->second;
    if (count < best_count) {
      best = i;
      best_count = count;
      if (count == 0) {
        break;  // Arrival order among zero-count LIPs.
      }
    }
  }
  return best;
}

bool InferenceScheduler::IsDecode(const PredRequest& request) const {
  return request.chunk_done == 0 &&
         request.tokens.size() <= options_.decode_classify_tokens;
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
void InferenceScheduler::ForEachPick(std::vector<char>& picked,
                                     Add add) const {
  std::unordered_map<LipId, uint32_t> taken;
  size_t left = picked.size();
  size_t added = 0;
  uint64_t total_tokens = 0;
  bool decode_phase = options_.decode_priority;
  while (left > 0 && added < options_.max_batch_requests &&
         total_tokens < options_.max_batch_tokens) {
    size_t pick = PickNext(taken, picked, decode_phase);
    if (pick == kNoPick) {
      if (decode_phase) {
        decode_phase = false;  // Decodes exhausted; top up with one prefill.
        continue;
      }
      break;
    }
    picked[pick] = 1;
    --left;
    ++taken[queue_[pick].lip];
    std::optional<uint64_t> take = add(pick);
    if (!take.has_value()) {
      continue;
    }
    ++added;
    total_tokens += *take;
    if (!decode_phase && options_.decode_priority) {
      break;  // Decode-priority batches carry at most one prefill chunk.
    }
  }
}

std::vector<WorkItem> InferenceScheduler::ProspectiveItems() const {
  std::vector<WorkItem> items;
  items.reserve(std::min(queue_.size(), options_.max_batch_requests));
  std::vector<char> picked(queue_.size(), 0);
  ForEachPick(picked, [&](size_t i) -> std::optional<uint64_t> {
    uint64_t take = ChunkTake(queue_[i]);
    StatusOr<uint64_t> length = kvfs_->Length(queue_[i].kv);
    items.push_back(WorkItem{take, length.ok() ? *length : 0});
    return take;
  });
  return items;
}

void InferenceScheduler::LaunchBatch() {
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
  ForEachPick(picked, [&](size_t i) -> std::optional<uint64_t> {
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

  // Compact the queue: drop picked slots, keep everything else (including
  // entries appended past the mask while completing failures above).
  std::deque<PredRequest> kept;
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (i < picked.size() && picked[i] != 0) {
      continue;
    }
    kept.push_back(std::move(queue_[i]));
  }
  queue_ = std::move(kept);

  if (batch->empty()) {
    // Everything in this round failed validation; look again.
    MaybeLaunch();
    return;
  }

  uint64_t transfer_bytes = kvfs_->TakePendingTransferBytes();
  ++stats_.batches;
  device_->Execute(std::move(items), transfer_bytes, [this, batch] {
    next_launch_time_ = sim_->now() + options_.formation_delay;
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
    // unchunked would; decode-priority packing reorders around it anyway.
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
  }
  result.dists.insert(result.dists.end(),
                      std::make_move_iterator(dists.begin()),
                      std::make_move_iterator(dists.end()));
  uint64_t pred_tokens = request.chunk_done + take;
  uint64_t context_after = *length + take;
  LipId lip = request.lip;
  request.complete(std::move(result));
  if (prefill_complete_hook_ != nullptr &&
      pred_tokens > options_.decode_classify_tokens) {
    prefill_complete_hook_(lip, context_after);
  }
}

}  // namespace symphony
