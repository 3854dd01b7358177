// Exporters. Registry samples become Prometheus text (prometheus_text,
// `--metrics` on the examples) or the one human report format every
// report() overload emits (render_report). Trace-ring snapshots become
// Chrome trace_event JSON for chrome://tracing or ui.perfetto.dev
// (chrome_trace_json, `--trace-out` on the examples) or the paper's
// Figure-4 text timeline (timeline_rows, render_timeline).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_ring.h"

namespace pa::obs {

/// Prometheus text exposition of every metric in `reg`.
/// Histograms export as summaries: `name{quantile="0.5"}`, `"0.99"`,
/// `"0.999"`, then `name_count` and `name_sum`.
std::string prometheus_text(const MetricsRegistry& reg);

/// Normalized human report: `title:` then one `  name value  # help` line
/// per metric. Zero-valued counters/gauges and empty histograms are
/// suppressed ("only report what happened"); histograms render count, mean
/// and p50/p99/p999 on one line.
std::string render_report(const MetricsRegistry& reg, const std::string& title);

/// Owner id (SpanEvent::owner) -> display name, e.g. a simulator node.
using OwnerNames = std::map<std::uint16_t, std::string>;

/// Chrome trace_event JSON array ("X" complete events for spans with a
/// duration, "i" instant events otherwise), ordered by start time.
/// Timestamps are exported in microseconds as Chrome expects. Without
/// `tracks` every span sits on one track named "pa"; with them each owner
/// gets its own track, named where `tracks` names it.
std::string chrome_trace_json(std::vector<SpanEvent> spans,
                              const OwnerNames& tracks = {});

/// One Figure-4 row: when (ns) a named owner reached a phase boundary.
struct TimelineRow {
  std::int64_t t;
  std::string node;
  const char* label;
};

/// The Figure-4 rows of the spans whose owner `names` names, by time (ties
/// keep record order), each where its span ends, labelled as the paper
/// does: SEND / SEND(proto) / SEND(rexmit), DELIVER / DELIVER(slow),
/// POSTSEND DONE, POSTDELIVER DONE, GARBAGE COLLECTED.
std::vector<TimelineRow> timeline_rows(const std::vector<SpanEvent>& spans,
                                       const OwnerNames& names);

/// Text timeline, one column per node name (sorted), times in µs.
std::string render_timeline(const std::vector<TimelineRow>& rows);

}  // namespace pa::obs
