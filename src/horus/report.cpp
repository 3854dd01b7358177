// Every overload renders through one pipeline: bind the stat struct into a
// throwaway MetricsRegistry (obs/bridge.h) and print it with
// obs::render_report — so the human report, the Prometheus exposition and
// the catalog in docs/OBSERVABILITY.md all share one set of metric names
// and one line format: `name value  # help`.
#include "horus/report.h"

#include "obs/bridge.h"
#include "obs/export.h"

namespace pa {

namespace {

template <class S>
std::string render(const S& s, const std::string& title) {
  obs::MetricsRegistry reg;
  obs::bind_stats(reg, s);
  return obs::render_report(reg, title);
}

}  // namespace

std::string report(const EngineStats& s) { return render(s, "engine"); }
std::string report(const Router::Stats& s) { return render(s, "router"); }
std::string report(const GcModel::Stats& s) { return render(s, "gc"); }
std::string report(const MessagePool::Stats& s) {
  return render(s, "message pool");
}
std::string report(const BufStats& s) {
  return render(s, "zero-copy buffers");
}
std::string report(const SimNetwork::Stats& s) {
  return render(s, "network");
}

std::string report(const Stack& s) {
  obs::MetricsRegistry reg;
  obs::bind_stack_stats(reg, s);
  return obs::render_report(reg, "stack");
}

}  // namespace pa
