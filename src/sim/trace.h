// Execution tracing in Chrome trace-event format.
//
// Components emit spans (virtual-time intervals on named tracks) and instant
// markers into a TraceRecorder; WriteChromeJson produces a file loadable in
// chrome://tracing or https://ui.perfetto.dev. The serving layer wires the
// recorder into the device (one span per batch, per transfer) and the LIP
// runtime (one span per LIP lifetime, markers for tool calls), giving the
// paper's "what is the GPU doing and who is waiting" view for free.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/time.h"

namespace symphony {

class TraceRecorder {
 public:
  // A completed span of virtual time on `track` (rendered as a Chrome
  // trace "X" event; track maps to tid).
  void Span(std::string track, std::string name, SimTime start,
            SimDuration duration);

  // A zero-duration marker.
  void Instant(std::string track, std::string name, SimTime at);

  // A counter sample (rendered as a Chrome "C" event).
  void Counter(std::string name, SimTime at, double value);

  size_t event_count() const { return events_.size(); }

  // Serializes all events; timestamps are microseconds of virtual time.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'X' span, 'i' instant, 'C' counter.
    std::string track;
    std::string name;
    SimTime start;
    SimDuration duration;
    double value;
  };
  // Stable small integer per track name (Chrome tid).
  uint32_t TrackId(const std::string& track);

  std::vector<Event> events_;
  std::vector<std::string> tracks_;
};

}  // namespace symphony

#endif  // SRC_SIM_TRACE_H_
