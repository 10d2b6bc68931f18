// Discrete-event simulation core.
//
// Simulator owns the virtual clock and a time-ordered queue of callbacks.
// Components schedule work with ScheduleAt/ScheduleAfter; Run() dispatches
// events in (time, insertion order) until the queue drains or a deadline is
// hit. Ties break by insertion order, which makes runs fully deterministic.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/time.h"

namespace symphony {

class Simulator {
 public:
  using EventFn = std::function<void()>;
  using EventId = uint64_t;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute virtual time `when`. Times in the past run at
  // the current time (never rewinds the clock). Returns an id usable with
  // Cancel().
  EventId ScheduleAt(SimTime when, EventFn fn);
  EventId ScheduleAfter(SimDuration delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // The event is skipped when dequeued. Returns true if it was still
  // pending; false (and no effect) if it already ran or was cancelled.
  bool Cancel(EventId id);

  // Dispatches events until the queue is empty. Returns number dispatched.
  uint64_t Run();

  // Dispatches events with time <= deadline; the clock ends at
  // max(now, deadline). Returns number dispatched.
  uint64_t RunUntil(SimTime deadline);

  // Dispatches a single event if available. Returns false if queue empty.
  bool Step();

  // Pending means scheduled, not yet dispatched and not cancelled.
  bool empty() const { return pending_count_ == 0; }
  size_t pending_count() const { return pending_count_; }

 private:
  // An EventId packs (generation << 32 | slot). A slot is held from
  // ScheduleAt until its event leaves the queue; its generation moves on
  // when the event is dispatched or cancelled, so a stale id never matches.
  struct Event {
    SimTime when;
    uint64_t seq;  // Tie-break: FIFO among same-time events.
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Pops the top event; runs it unless it was cancelled. Returns whether it
  // ran.
  bool PopAndDispatch();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_count_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<uint32_t> generation_;  // Current generation, by slot.
  std::vector<uint32_t> free_slots_;
};

}  // namespace symphony

#endif  // SRC_SIM_EVENT_QUEUE_H_
