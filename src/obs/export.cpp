#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace pa::obs {
namespace {

const char* prom_type(MetricType t) {
  switch (t) {
    case MetricType::kCounter:   return "counter";
    case MetricType::kGauge:     return "gauge";
    case MetricType::kHistogram: return "summary";
  }
  return "untyped";
}

std::string num(double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

constexpr double kQuantiles[] = {0.5, 0.99, 0.999};
constexpr const char* kQuantileLabels[] = {"0.5", "0.99", "0.999"};

}  // namespace

std::string prometheus_text(const MetricsRegistry& reg) {
  std::string out;
  char line[256];
  for (const MetricSample& s : reg.collect()) {
    std::snprintf(line, sizeof line, "# HELP %s %s%s%s%s\n", s.name.c_str(),
                  s.help.c_str(), s.unit.empty() ? "" : " (", s.unit.c_str(),
                  s.unit.empty() ? "" : ")");
    out += line;
    std::snprintf(line, sizeof line, "# TYPE %s %s\n", s.name.c_str(),
                  prom_type(s.type));
    out += line;
    if (s.hist != nullptr) {
      for (std::size_t q = 0; q < 3; ++q) {
        std::snprintf(line, sizeof line, "%s{quantile=\"%s\"} %s\n",
                      s.name.c_str(), kQuantileLabels[q],
                      num(static_cast<double>(s.hist->percentile(
                          kQuantiles[q]))).c_str());
        out += line;
      }
      std::snprintf(line, sizeof line, "%s_count %s\n", s.name.c_str(),
                    num(static_cast<double>(s.hist->count())).c_str());
      out += line;
      std::snprintf(line, sizeof line, "%s_sum %s\n", s.name.c_str(),
                    num(static_cast<double>(s.hist->sum())).c_str());
      out += line;
    } else {
      std::snprintf(line, sizeof line, "%s %s\n", s.name.c_str(),
                    num(s.value).c_str());
      out += line;
    }
  }
  return out;
}

std::string render_report(const MetricsRegistry& reg,
                          const std::string& title) {
  std::string out = title + ":\n";
  char line[320];
  for (const MetricSample& s : reg.collect()) {
    if (s.hist != nullptr) {
      if (s.hist->count() == 0) continue;  // only report what happened
      std::snprintf(
          line, sizeof line,
          "  %s n=%llu mean=%.0f p50=%llu p99=%llu p999=%llu  # %s%s%s%s\n",
          s.name.c_str(), static_cast<unsigned long long>(s.hist->count()),
          s.hist->mean(),
          static_cast<unsigned long long>(s.hist->percentile(0.5)),
          static_cast<unsigned long long>(s.hist->percentile(0.99)),
          static_cast<unsigned long long>(s.hist->percentile(0.999)),
          s.help.c_str(), s.unit.empty() ? "" : " (", s.unit.c_str(),
          s.unit.empty() ? "" : ")");
      out += line;
      continue;
    }
    if (s.value == 0) continue;  // only report what happened
    std::snprintf(line, sizeof line, "  %s %s  # %s%s%s%s\n", s.name.c_str(),
                  num(s.value).c_str(), s.help.c_str(),
                  s.unit.empty() ? "" : " (", s.unit.c_str(),
                  s.unit.empty() ? "" : ")");
    out += line;
  }
  return out;
}

std::string chrome_trace_json(std::vector<SpanEvent> spans,
                              const OwnerNames& tracks) {
  // The ring holds events in record order; a span is recorded when it ends,
  // so order by start time (stable, keeping record order among ties).
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.ts < b.ts;
                   });
  std::string out = "[\n";
  char line[320];
  for (const SpanEvent& e : spans) {
    // Chrome's ts/dur are microseconds (fractions allowed).
    char when[96];
    if (e.dur > 0) {
      std::snprintf(when, sizeof when,
                    "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f",
                    static_cast<double>(e.ts) / 1e3,
                    static_cast<double>(e.dur) / 1e3);
    } else {
      std::snprintf(when, sizeof when,
                    "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f",
                    static_cast<double>(e.ts) / 1e3);
    }
    std::snprintf(line, sizeof line,
                  "  {\"name\": \"%s\", \"cat\": \"pa\", %s, \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"arg\": %u, \"owner\": %u}},\n",
                  span_kind_name(static_cast<SpanKind>(e.kind)), when,
                  tracks.empty() ? 1u : e.owner, e.arg, e.owner);
    out += line;
  }
  const OwnerNames one_track{{1, "pa"}};
  const char* sep = "";
  for (const auto& [tid, name] : tracks.empty() ? one_track : tracks) {
    out += sep;
    std::snprintf(line, sizeof line,
                  "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                  static_cast<unsigned>(tid), name.c_str());
    out += line;
    sep = ",\n";
  }
  out += "\n]\n";
  return out;
}

namespace {

// The Figure-4 label of a span, or null if the timeline does not show it.
const char* timeline_label(const SpanEvent& e) {
  switch (static_cast<SpanKind>(e.kind)) {
    case SpanKind::kSendFast:
    case SpanKind::kSendSlow:    return "SEND";
    case SpanKind::kSendProto:   return "SEND(proto)";
    case SpanKind::kSendRexmit:  return "SEND(rexmit)";
    case SpanKind::kDeliverApp:  return e.arg ? "DELIVER(slow)" : "DELIVER";
    case SpanKind::kPostSend:    return "POSTSEND DONE";
    case SpanKind::kPostDeliver: return "POSTDELIVER DONE";
    case SpanKind::kGcPause:     return "GARBAGE COLLECTED";
    default:                     return nullptr;
  }
}

}  // namespace

std::vector<TimelineRow> timeline_rows(const std::vector<SpanEvent>& spans,
                                       const OwnerNames& names) {
  std::vector<TimelineRow> rows;
  for (const SpanEvent& e : spans) {
    const char* label = timeline_label(e);
    const auto node = names.find(e.owner);
    if (label != nullptr && node != names.end()) {
      rows.push_back(TimelineRow{e.ts + e.dur, node->second, label});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TimelineRow& a, const TimelineRow& b) {
                     return a.t < b.t;
                   });
  return rows;
}

std::string render_timeline(const std::vector<TimelineRow>& rows) {
  std::set<std::string> cols;
  for (const TimelineRow& r : rows) cols.insert(r.node);
  std::string out;
  char buf[192];
  auto cell = [&](const char* fmt, auto v) {
    std::snprintf(buf, sizeof buf, fmt, v);
    out += buf;
  };
  cell("%10s", "t (usec)");
  for (const std::string& c : cols) cell("  %-28s", c.c_str());
  out += "\n";
  for (const TimelineRow& r : rows) {
    cell("%10.1f", static_cast<double>(r.t) / 1e3);
    for (const std::string& c : cols) {
      cell("  %-28s", c == r.node ? r.label : "");
    }
    out += "\n";
  }
  return out;
}

}  // namespace pa::obs
