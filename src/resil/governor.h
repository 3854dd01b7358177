// Overload governor: turns the pressure signals the system already has into
// one smoothed overload level, and answers policy questions per level.
//
// Nothing in the stack degrades gracefully on its own when offered load
// exceeds capacity: the recv queue fills and overflows, the backlog grows
// without bound, the loop's timers fire late. Production transports treat
// overload as a first-class input with explicit pacing and shedding; the
// governor is that input's aggregation point.
//
// Signals (all normalized to a [0,1] "fraction of watermark"):
//   - PA backlog depth (admission pressure at ingest),
//   - recv-queue depth (post-processing is behind the wire),
//   - MessagePool occupancy (allocation pressure),
//   - RealLoop timer wakeup lag (the dispatch thread itself is behind),
//   - RealLoop send-train depth (datagrams queued for the next sendmmsg
//     flush: the kernel or the loop is not draining sends fast enough),
//   - RealLoop receive-drain saturation (consecutive full recvmmsg batches:
//     the wire is delivering faster than one wakeup can ingest),
//   - Router connection churn (the fraction of traffic demanding fresh
//     conn-ident scans or shed by ident quotas: a churn/join storm).
//
// Event-shaped signals (wakeup lag, drain saturation, churn) are
// EWMA-smoothed at report time; level-shaped signals (queue depths) keep
// their latest value.
// tick() folds the maximum of the signals into one smoothed pressure value
// and maps it onto the ladder
//
//   Normal -> Elevated -> Saturated -> Critical
//
// with hysteresis (a level only drops after pressure falls a margin below
// its entry threshold), so the level does not flap at a boundary.
//
// Policy ladder (each level keeps everything the previous level does):
//   Elevated:   admission watermark at PA ingest (new app sends beyond the
//               watermark are shed as `shed_ingest`).
//   Saturated:  watermark tightens; heartbeat emissions shed
//               (`shed_heartbeat`); new conn-idents rejected at the router
//               before established traffic (`shed_new_conn`); packing
//               trains shrink and the send window is clamped.
//   Critical:   watermark tightens again; standalone-ack/gossip emissions
//               shed (`shed_gossip`); train and clamp tighten.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.h"

namespace pa::resil {

enum class OverloadLevel : std::uint8_t {
  kNormal = 0,
  kElevated,
  kSaturated,
  kCritical,
};

const char* level_name(OverloadLevel level);

struct GovernorConfig {
  // Smoothing factor folded into the pressure EWMA per tick.
  double alpha = 0.3;
  // Minimum spacing between smoothing steps (Env-clock time: virtual ns in
  // the simulator, wall ns on the real loop).
  VtDur tick_interval = vt_us(100);
  // Rising thresholds on smoothed pressure.
  double up_elevated = 0.25;
  double up_saturated = 0.55;
  double up_critical = 0.85;
  // A level is only left downward once pressure sits this far below its
  // entry threshold (hysteresis).
  double down_margin = 0.10;
  // Signal watermarks: the depth/lag that reads as pressure 1.0.
  std::size_t backlog_watermark = 256;
  std::size_t recv_watermark = 512;
  VtDur lag_watermark = vt_ms(5);
  // Send-train depth (datagrams queued across the loop's per-socket trains)
  // that reads as pressure 1.0.
  std::size_t net_train_watermark = 256;
  // Per-level ingest admission watermarks (max backlog depth a new app send
  // may join). kNormal admits unconditionally.
  std::size_t admit_elevated = 256;
  std::size_t admit_saturated = 64;
  std::size_t admit_critical = 16;
};

class OverloadGovernor {
 public:
  explicit OverloadGovernor(GovernorConfig cfg = {});

  // --- signal ingest ------------------------------------------------------
  void report_backlog(std::size_t depth);
  void report_recv_queue(std::size_t depth);
  void report_pool(std::size_t in_use, std::size_t capacity);
  /// Timer wakeup lag on the dispatch loop (how late a due timer fired).
  void report_loop_lag(VtDur lag);
  /// Depth of the real loop's send trains at a flush point (level-shaped,
  /// normalized against net_train_watermark). A depth that keeps growing
  /// means sendmmsg flushes are not keeping up with enqueues.
  void report_net_train(std::size_t depth);
  /// Receive-drain saturation in [0,1]: how close the loop's recvmmsg
  /// drains are to never finding the socket empty (event-shaped, EWMA).
  void report_net_drain(double saturation);
  /// Connection-churn pressure: the router reports 1.0 per churn event (a
  /// frame demanding a fresh conn-ident scan, a quota shed, an unknown
  /// cookie) and 0.0 per established cookie-routed frame, so the signal
  /// tracks the *fraction* of traffic that is churn (event-shaped, EWMA —
  /// same idiom as report_net_drain). A churn storm raises the ladder, which
  /// arms reject_new_idents() and the router's scan budget.
  void report_churn(double pressure);

  // --- smoothing ----------------------------------------------------------
  /// Fold the current signal maximum into the smoothed pressure and update
  /// the level. Cheap no-op until `tick_interval` has elapsed since the
  /// last step.
  void tick(Vt now);

  OverloadLevel level() const { return level_; }
  double pressure() const { return smoothed_; }
  /// Highest level reached since construction (bench/test assertion hook).
  OverloadLevel max_level() const { return max_level_; }

  // --- policy ladder ------------------------------------------------------
  /// May a new application send join a backlog currently `depth` deep?
  bool admit_ingest(std::size_t depth) const;
  /// Shed heartbeat emissions? (>= Saturated)
  bool shed_heartbeat() const { return level() >= OverloadLevel::kSaturated; }
  /// Shed standalone-ack/gossip emissions? (Critical only: acks are
  /// repairable — retransmission re-triggers them — but shedding them any
  /// earlier would slow the very drain that relieves the pressure.)
  bool shed_gossip() const { return level() >= OverloadLevel::kCritical; }
  /// Reject frames that would need a fresh conn-ident scan? (>= Saturated;
  /// established cookie-routed traffic is never affected.)
  bool reject_new_idents() const {
    return level() >= OverloadLevel::kSaturated;
  }
  /// Packing-train size limit under pressure: full batches amortize cost
  /// but each train is a latency bubble for everything behind it, so the
  /// train shrinks as the ladder climbs.
  std::size_t pack_batch_limit(std::size_t configured) const;
  /// Send-window clamp under pressure: fewer in-flight frames means the
  /// receiver's recv queue and post-processing stop being force-fed.
  std::uint32_t window_clamp(std::uint32_t configured) const;

  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t level_changes = 0;
  };
  Stats stats() const { return stats_; }

  const GovernorConfig& config() const { return cfg_; }

 private:
  static double clamp01(double v) { return v < 0 ? 0 : (v > 1 ? 1 : v); }
  void set_level(OverloadLevel next);

  GovernorConfig cfg_;

  // Level-shaped signals: latest value wins.
  double sig_backlog_ = 0;
  double sig_recv_ = 0;
  double sig_pool_ = 0;
  double sig_net_tx_ = 0;
  // Event-shaped signals: EWMA at report time.
  double sig_lag_ = 0;
  double sig_net_rx_ = 0;
  double sig_churn_ = 0;

  double smoothed_ = 0;
  Vt last_tick_ = 0;
  OverloadLevel level_ = OverloadLevel::kNormal;
  OverloadLevel max_level_ = OverloadLevel::kNormal;
  Stats stats_;
};

}  // namespace pa::resil
