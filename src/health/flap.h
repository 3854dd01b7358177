// Flap damping: an exponentially-decayed flap score gating restore.
//
// A link that bounces (partition flutter, a congested last hop, a peer
// wedged in a crash loop) makes the failure detector right every time —
// the peer really did go silent — yet acting on every transition churns
// the membership epoch, invalidates predictions group-wide, and floods the
// gossip plane with view changes. Borrowing BGP route-flap damping
// (RFC 2439): each suspect->restore flap adds a fixed penalty to a score
// that decays exponentially with a fixed half-life. While the score
// sits above kSuppress, restores are withheld (the member stays suspect
// even though we can hear it); the member is released once the score
// decays below kReuse. A peer that flaps once pays nothing; a peer that
// flaps every few seconds stays suspended until it holds still.
//
// Header-only: two doubles of state, driven by explicit timestamps like
// everything else in the health plane.
#pragma once

#include <cmath>

#include "util/types.h"

namespace pa::health {

class FlapDamper {
 public:
  /// Added per suspect->restore flap.
  static constexpr double kPenalty = 1.0;
  /// Score at/above which restores are withheld.
  static constexpr double kSuppress = 3.0;
  /// Score below which a suppressed peer is freed.
  static constexpr double kReuse = 1.5;
  /// Decay: the score halves every kHalfLife.
  static constexpr VtDur kHalfLife = vt_s(4);
  /// Score cap (bounds the maximum suppression).
  static constexpr double kCeiling = 8.0;

  /// Record one flap (a restore event) at `now`.
  void note_flap(Vt now) {
    decay_to(now);
    score_ += kPenalty;
    if (score_ > kCeiling) score_ = kCeiling;
    if (score_ >= kSuppress) suppressed_ = true;
  }

  /// May a restore be acted on at `now`? (Hysteresis: once suppressed,
  /// stays suppressed until the score decays below kReuse.)
  bool restore_allowed(Vt now) {
    decay_to(now);
    if (suppressed_ && score_ < kReuse) suppressed_ = false;
    return !suppressed_;
  }

  double score(Vt now) {
    decay_to(now);
    return score_;
  }
  bool suppressed() const { return suppressed_; }
  void reset() {
    score_ = 0;
    suppressed_ = false;
    anchored_ = false;
  }

 private:
  void decay_to(Vt now) {
    if (!anchored_) {
      anchored_ = true;
      last_ = now;
      return;
    }
    if (now <= last_) return;
    const double dt = static_cast<double>(now - last_);
    score_ *= std::exp2(-dt / static_cast<double>(kHalfLife));
    last_ = now;
  }

  double score_ = 0;
  bool suppressed_ = false;
  bool anchored_ = false;
  Vt last_ = 0;
};

}  // namespace pa::health
