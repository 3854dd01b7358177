#include "resil/governor.h"

#include <initializer_list>

#include "obs/bridge.h"

namespace pa::resil {

const char* level_name(OverloadLevel level) {
  switch (level) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kElevated: return "elevated";
    case OverloadLevel::kSaturated: return "saturated";
    case OverloadLevel::kCritical: return "critical";
  }
  return "?";
}

void OverloadGovernor::report_backlog(std::size_t depth) {
  sig_backlog_ = clamp01(static_cast<double>(depth) /
                         static_cast<double>(kBacklogWatermark));
}

void OverloadGovernor::report_recv_queue(std::size_t depth) {
  sig_recv_ =
      clamp01(static_cast<double>(depth) / static_cast<double>(kRecvWatermark));
}

void OverloadGovernor::report_pool(std::size_t in_use, std::size_t capacity) {
  if (capacity == 0) return;
  sig_pool_ =
      clamp01(static_cast<double>(in_use) / static_cast<double>(capacity));
}

void OverloadGovernor::report_loop_lag(VtDur lag) {
  const double frac =
      clamp01(static_cast<double>(lag) / static_cast<double>(kLagWatermark));
  sig_lag_ += 0.25 * (frac - sig_lag_);
}

void OverloadGovernor::report_net_train(std::size_t depth) {
  sig_net_tx_ = clamp01(static_cast<double>(depth) /
                        static_cast<double>(kNetTrainWatermark));
}

void OverloadGovernor::report_net_drain(double saturation) {
  sig_net_rx_ += 0.25 * (clamp01(saturation) - sig_net_rx_);
}

void OverloadGovernor::report_churn(double pressure) {
  sig_churn_ += 0.25 * (clamp01(pressure) - sig_churn_);
}

void OverloadGovernor::tick(Vt now) {
  if (last_tick_ != 0 && now - last_tick_ < kTickInterval) return;
  last_tick_ = now;
  ++stats_.ticks;

  double raw = sig_backlog_;
  for (double s : {sig_recv_, sig_pool_, sig_lag_, sig_net_tx_, sig_net_rx_,
                   sig_churn_}) {
    if (s > raw) raw = s;
  }
  const double next = smoothed_ + kAlpha * (raw - smoothed_);
  smoothed_ = next;

  // Rising edges take effect immediately; falling edges need the margin.
  const OverloadLevel cur = level_;
  OverloadLevel up = OverloadLevel::kNormal;
  if (next >= kUpCritical) {
    up = OverloadLevel::kCritical;
  } else if (next >= kUpSaturated) {
    up = OverloadLevel::kSaturated;
  } else if (next >= kUpElevated) {
    up = OverloadLevel::kElevated;
  }
  if (up > cur) {
    set_level(up);
    return;
  }
  if (up < cur) {
    // Leave the current level only once pressure has dropped a margin below
    // its entry threshold; then fall to wherever pressure now points.
    const double entry = cur == OverloadLevel::kCritical    ? kUpCritical
                         : cur == OverloadLevel::kSaturated ? kUpSaturated
                                                            : kUpElevated;
    if (next < entry - kDownMargin) set_level(up);
  }
}

void OverloadGovernor::set_level(OverloadLevel next) {
  level_ = next;
  ++stats_.level_changes;
  if (next > max_level_) max_level_ = next;
}

void OverloadGovernor::bind_stats(obs::MetricsRegistry& reg) const {
  obs::bind_stats(reg, stats_);
  reg.gauge_fn("resil_level", "overload level (0 normal .. 3 critical)", "",
               [this] { return static_cast<double>(level_); });
  reg.gauge_fn("resil_pressure_millis", "smoothed overload pressure x1000",
               "", [this] {
                 return static_cast<double>(
                     static_cast<std::int64_t>(smoothed_ * 1000));
               });
}

bool OverloadGovernor::admit_ingest(std::size_t depth) const {
  switch (level()) {
    case OverloadLevel::kNormal: return true;
    case OverloadLevel::kElevated: return depth < kAdmitElevated;
    case OverloadLevel::kSaturated: return depth < kAdmitSaturated;
    case OverloadLevel::kCritical: return depth < kAdmitCritical;
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
