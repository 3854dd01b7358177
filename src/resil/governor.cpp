#include "resil/governor.h"

#include <initializer_list>

#include "obs/metrics.h"

namespace pa::resil {
namespace {

// Process-global governor metrics. Like the engine phase histograms,
// governors are cheap to create in tests, so the gauges are shared: with
// several governors alive the gauges show the most recent ticker (the
// common deployment is one governor per process).
struct GovMetrics {
  obs::Gauge& level;
  obs::Gauge& pressure_millis;
  obs::Counter& level_changes;
  obs::Counter& ticks;
};

GovMetrics& gov_metrics() {
  static GovMetrics m{
      obs::registry().gauge("resil_level",
                            "overload level (0 normal .. 3 critical)"),
      obs::registry().gauge("resil_pressure_millis",
                            "smoothed overload pressure x1000"),
      obs::registry().counter("resil_level_changes_total",
                              "overload level transitions"),
      obs::registry().counter("resil_ticks_total",
                              "governor smoothing steps"),
  };
  return m;
}

}  // namespace

const char* level_name(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kElevated: return "elevated";
    case OverloadLevel::kSaturated: return "saturated";
    case OverloadLevel::kCritical: return "critical";
  }
  return "?";
}

OverloadGovernor::OverloadGovernor(GovernorConfig cfg) : cfg_(cfg) {
  gov_metrics();  // register the metric names up front
}

void OverloadGovernor::report_backlog(std::size_t depth) {
  sig_backlog_ = clamp01(static_cast<double>(depth) /
                         static_cast<double>(cfg_.backlog_watermark));
}

void OverloadGovernor::report_recv_queue(std::size_t depth) {
  sig_recv_ = clamp01(static_cast<double>(depth) /
                      static_cast<double>(cfg_.recv_watermark));
}

void OverloadGovernor::report_pool(std::size_t in_use, std::size_t capacity) {
  if (capacity == 0) return;
  sig_pool_ =
      clamp01(static_cast<double>(in_use) / static_cast<double>(capacity));
}

void OverloadGovernor::report_loop_lag(VtDur lag) {
  const double frac = clamp01(static_cast<double>(lag) /
                              static_cast<double>(cfg_.lag_watermark));
  sig_lag_ += 0.25 * (frac - sig_lag_);
}

void OverloadGovernor::report_net_train(std::size_t depth) {
  sig_net_tx_ = clamp01(static_cast<double>(depth) /
                        static_cast<double>(cfg_.net_train_watermark));
}

void OverloadGovernor::report_net_drain(double saturation) {
  sig_net_rx_ += 0.25 * (clamp01(saturation) - sig_net_rx_);
}

void OverloadGovernor::report_churn(double pressure) {
  sig_churn_ += 0.25 * (clamp01(pressure) - sig_churn_);
}

void OverloadGovernor::tick(Vt now) {
  if (last_tick_ != 0 && now - last_tick_ < cfg_.tick_interval) return;
  last_tick_ = now;
  ++stats_.ticks;
  gov_metrics().ticks.inc();

  double raw = sig_backlog_;
  for (double s : {sig_recv_, sig_pool_, sig_lag_, sig_net_tx_, sig_net_rx_,
                   sig_churn_}) {
    if (s > raw) raw = s;
  }
  const double next = smoothed_ + cfg_.alpha * (raw - smoothed_);
  smoothed_ = next;
  gov_metrics().pressure_millis.set(static_cast<std::int64_t>(next * 1000));

  // Rising edges take effect immediately; falling edges need the margin.
  const OverloadLevel cur = level_;
  OverloadLevel up = OverloadLevel::kNormal;
  if (next >= cfg_.up_critical) {
    up = OverloadLevel::kCritical;
  } else if (next >= cfg_.up_saturated) {
    up = OverloadLevel::kSaturated;
  } else if (next >= cfg_.up_elevated) {
    up = OverloadLevel::kElevated;
  }
  if (up > cur) {
    set_level(up);
    return;
  }
  if (up < cur) {
    // Leave the current level only once pressure has dropped a margin below
    // its entry threshold; then fall to wherever pressure now points.
    const double entry = cur == OverloadLevel::kCritical ? cfg_.up_critical
                         : cur == OverloadLevel::kSaturated
                             ? cfg_.up_saturated
                             : cfg_.up_elevated;
    if (next < entry - cfg_.down_margin) set_level(up);
  }
}

void OverloadGovernor::set_level(OverloadLevel next) {
  level_ = next;
  ++stats_.level_changes;
  gov_metrics().level.set(static_cast<std::int64_t>(next));
  gov_metrics().level_changes.inc();
  if (next > max_level_) max_level_ = next;
}

bool OverloadGovernor::admit_ingest(std::size_t depth) const {
  switch (level()) {
    case OverloadLevel::kNormal: return true;
    case OverloadLevel::kElevated: return depth < cfg_.admit_elevated;
    case OverloadLevel::kSaturated: return depth < cfg_.admit_saturated;
    case OverloadLevel::kCritical: return depth < cfg_.admit_critical;
  }
  return true;
}

std::size_t OverloadGovernor::pack_batch_limit(std::size_t configured) const {
  std::size_t limit = configured;
  switch (level()) {
    case OverloadLevel::kNormal:
    case OverloadLevel::kElevated: break;
    case OverloadLevel::kSaturated: limit = configured / 2; break;
    case OverloadLevel::kCritical: limit = configured / 4; break;
  }
  return limit < 1 ? 1 : limit;
}

std::uint32_t OverloadGovernor::window_clamp(std::uint32_t configured) const {
  std::uint32_t clamp = configured;
  switch (level()) {
    case OverloadLevel::kNormal:
    case OverloadLevel::kElevated: break;
    case OverloadLevel::kSaturated: clamp = configured / 2; break;
    case OverloadLevel::kCritical: clamp = configured / 4; break;
  }
  return clamp < 1 ? 1 : clamp;
}

}  // namespace pa::resil
