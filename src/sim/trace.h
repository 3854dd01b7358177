// Timeline trace recorder (regenerates the paper's Figure 4 breakdown).
//
// This is the opt-in *Figure-4 text exporter* for simulator worlds
// (WorldConfig::trace): string-labelled events, unbounded storage, zero
// cost when disabled. The always-on production tracing facility is
// obs/trace_ring.h — compact binary span events in one bounded process
// ring, exported via obs::chrome_trace_json. Use that for anything on a
// hot path; use this when you want the two-column µs timeline.
#pragma once

#include <string>
#include <vector>

#include "util/types.h"

namespace pa {

struct TraceEvent {
  Vt t;
  std::string node;
  std::string label;
};

class TraceRecorder {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void record(Vt t, std::string node, std::string label);

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Two-column timeline (one column per node name), times in µs —
  /// the shape of the paper's Figure 4.
  std::string render() const;

  /// Chrome tracing JSON (load in chrome://tracing or ui.perfetto.dev):
  /// one instant event per record, one track per node.
  std::string to_chrome_json() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace pa
