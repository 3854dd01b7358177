#include "obs/export.h"

#include <algorithm>
#include <cstdio>

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

std::string chrome_trace_json(std::vector<SpanEvent> spans) {
  // The ring holds events in record order; a span is recorded when it ends,
  // so order by start time (stable, keeping record order among ties).
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.ts < b.ts;
                   });
  std::string out = "[\n";
  char line[320];
  for (const SpanEvent& e : spans) {
    const SpanKind k = static_cast<SpanKind>(e.kind);
    // Chrome's ts/dur are microseconds (fractions allowed).
    if (e.dur > 0) {
      std::snprintf(line, sizeof line,
                    "  {\"name\": \"%s\", \"cat\": \"pa\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"arg\": %u, \"owner\": %u}},\n",
                    span_kind_name(k), static_cast<double>(e.ts) / 1e3,
                    static_cast<double>(e.dur) / 1e3, e.arg, e.owner);
    } else {
      std::snprintf(line, sizeof line,
                    "  {\"name\": \"%s\", \"cat\": \"pa\", \"ph\": \"i\", "
                    "\"s\": \"t\", \"ts\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"arg\": %u, \"owner\": %u}},\n",
                    span_kind_name(k), static_cast<double>(e.ts) / 1e3, e.arg,
                    e.owner);
    }
    out += line;
  }
  out += "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 1, \"args\": {\"name\": \"pa\"}}\n]\n";
  return out;
}

}  // namespace pa::obs
