// Exporters: turn registry samples and trace-ring snapshots into the three
// consumable formats.
//
//   prometheus_text()  — Prometheus text exposition (counters/gauges as-is,
//                        histograms as summaries with p50/p99/p999
//                        quantiles plus _count/_sum), for scraping or
//                        dumping at exit (`--metrics` on the examples).
//   render_report()    — the human format every report() overload now
//                        emits: one `name value  # help` line per nonzero
//                        metric under a title. One renderer, one format —
//                        the engine/router/stack reports can no longer
//                        drift apart.
//   chrome_trace_json() — Chrome trace_event JSON from binary span events;
//                        load in chrome://tracing or ui.perfetto.dev for a
//                        flamegraph of the paper's Figure-4 phases
//                        (`--trace-out` on the examples).
//
// The fourth exporter — the two-column Figure 4 text timeline — is the
// pre-existing TraceRecorder::render() (sim/trace.h), kept for simulator
// worlds.
#pragma once

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

/// Chrome trace_event JSON array ("X" complete events for spans with a
/// duration, "i" instant events otherwise), ordered by start time on one
/// track named "pa". Timestamps are exported in microseconds as Chrome
/// expects.
std::string chrome_trace_json(std::vector<SpanEvent> spans);

}  // namespace pa::obs
