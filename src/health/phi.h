// Phi-accrual failure detection (Hayashibara et al., SRDS 2004).
//
// A binary timeout answers "is the peer late?" with yes/no against one
// hand-tuned constant; under 10% Gilbert–Elliott burst loss the answer is
// "yes" several times a second and the group plane churns. The phi-accrual
// detector instead keeps a sliding window of observed heartbeat/gossip
// inter-arrival times and reports a *continuous* suspicion value
//
//   phi(t_now) = -log10( P(next arrival is still pending at t_now) )
//
// under a normal approximation of the inter-arrival distribution. phi = 1
// means "if you suspect now, you are wrong 10% of the time"; phi = 8 means
// 10^-8. Consumers pick thresholds per decision (suspect at one phi,
// confirm-dead at a higher one after indirect probes fail) instead of one
// global timeout, and a noisy-but-alive link earns a wide variance — the
// detector automatically demands more silence before the same phi.
//
// The estimator is fed from two sides, per the health-plane design
// (docs/INTERNALS.md, "The health plane"):
//   - note_arrival(now): a heartbeat/gossip/data frame from the peer;
//   - prime(interval): an expectation seeded from elsewhere — the adaptive
//     RTO's srtt+4*rttvar, or the configured beacon interval — so a peer is
//     judged against a sane distribution before the window has filled.
//
// Deterministic and allocation-free after construction: all state lives in
// a fixed ring of interval samples. Single-threaded like the group plane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace pa::health {

class PhiDetector {
 public:
  /// Sliding-window length (inter-arrival samples kept).
  static constexpr std::size_t kWindow = 64;
  /// Variance floor, as a fraction of the mean interval: a perfectly
  /// regular beacon stream must not make the distribution a spike that
  /// suspects the peer one jitter later. Hayashibara uses a small constant;
  /// a fraction scales with the deployment's beacon interval.
  static constexpr double kMinStddevFrac = 0.25;
  /// Absolute stddev floor (guards the first samples / tiny intervals).
  static constexpr VtDur kMinStddev = vt_us(100);
  /// Expected interval before any sample or prime() arrives.
  static constexpr VtDur kInitialInterval = vt_ms(100);

  PhiDetector();

  /// A frame arrived from the peer at `now`. The first arrival only anchors
  /// the clock; subsequent ones record inter-arrival samples.
  void note_arrival(Vt now);

  /// Seed the expected-interval distribution without an arrival (adaptive-
  /// RTO srtt, configured beacon interval). Only takes effect while the
  /// window holds fewer real samples than `count`; real arrivals dominate
  /// as soon as they exist.
  void prime(VtDur interval, std::size_t count = 8);

  /// Current suspicion level. 0 while nothing has ever been heard (a peer
  /// that never spoke is judged by its owner's join timeout, not by us).
  double phi(Vt now) const;

  /// Forget everything (peer restarted under a new identity).
  void reset();

  bool ever_heard() const { return anchored_; }
  Vt last_arrival() const { return last_; }
  std::size_t samples() const { return ring_.size(); }
  VtDur mean_interval() const;

 private:
  void push(VtDur sample);
  void moments(double& mean, double& stddev) const;

  std::vector<VtDur> ring_;  // bounded by kWindow
  std::size_t head_ = 0;     // next slot to overwrite once full
  bool anchored_ = false;
  Vt last_ = 0;
};

}  // namespace pa::health
