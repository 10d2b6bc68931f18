#include "src/sim/event_queue.h"

#include <cassert>
#include <utility>

namespace symphony {

namespace {

uint32_t SlotOf(Simulator::EventId id) { return static_cast<uint32_t>(id); }
uint32_t GenerationOf(Simulator::EventId id) { return static_cast<uint32_t>(id >> 32); }

}  // namespace

Simulator::EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  assert(fn && "scheduling a null event");
  if (when < now_) {
    when = now_;
  }
  uint32_t slot = static_cast<uint32_t>(generation_.size());
  if (free_slots_.empty()) {
    generation_.push_back(1);  // Starts at 1, so no id is 0.
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  EventId id = (static_cast<EventId>(generation_[slot]) << 32) | slot;
  queue_.push(Event{when, next_seq_++, id, std::move(fn)});
  ++pending_count_;
  return id;
}

bool Simulator::Cancel(EventId id) {
  uint32_t slot = SlotOf(id);
  if (slot >= generation_.size() || generation_[slot] != GenerationOf(id)) {
    return false;
  }
  // The event stays queued (its slot with it) and is skipped when popped.
  ++generation_[slot];
  --pending_count_;
  return true;
}

bool Simulator::PopAndDispatch() {
  Event event = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = event.when;
  uint32_t slot = SlotOf(event.id);
  free_slots_.push_back(slot);
  if (generation_[slot] != GenerationOf(event.id)) {
    return false;  // Cancelled.
  }
  ++generation_[slot];
  --pending_count_;
  EventFn fn = std::move(event.fn);
  fn();
  return true;
}

uint64_t Simulator::Run() {
  uint64_t dispatched = 0;
  while (!queue_.empty()) {
    if (PopAndDispatch()) {
      ++dispatched;
    }
  }
  return dispatched;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t dispatched = 0;
  while (!queue_.empty() && queue_.top().when <= deadline) {
    if (PopAndDispatch()) {
      ++dispatched;
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return dispatched;
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    if (PopAndDispatch()) {
      return true;
    }
  }
  return false;
}

}  // namespace symphony
