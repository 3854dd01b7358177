// HealthPlane: the one shared per-peer liveness authority.
//
// Left to themselves, layers each re-derive "is the peer alive?" from
// their own partial evidence (a silence timer here, a dup streak there).
// The health plane centralizes that question (the lesson of *A Reflection
// on the Organic Growth of the Internet Protocol Stack*, PAPERS.md: failure
// handling bolted on per-layer ossifies). Every McastGroup runs one plane,
// and it is the only thing that suspects a group member; the gossip
// layer's beacons only keep a link audible. Per peer it combines:
//
//   - a phi-accrual detector (health/phi.h) fed by every arrival the owner
//     observes (gossip, beacons, data, acks) and primed from the adaptive
//     RTO, so suspicion is a continuous false-positive-rate dial, not a
//     binary timeout;
//   - indirect probing: crossing the suspect threshold does NOT confirm
//     death — the plane asks the owner (request_probe hook) to have k other
//     peers probe the target over their own PA connections. Any probe ack
//     proves the peer is alive behind an asymmetric link: it stays suspect
//     (no traffic flows our way) but is never confirmed dead while a
//     witness can reach it;
//   - flap damping (health/flap.h): restores are gated by an exponentially
//     decayed flap score, so a bouncing link settles into suspect instead
//     of churning the membership epoch at every bounce.
//
// The plane never mutates membership itself: it reports transitions
// through hooks and the owner (McastGroup, a router supervisor, a test)
// applies them. Single-threaded, driven by explicit timestamps; fully
// deterministic.
//
// State machine per peer:
//
//   kAlive --phi >= suspect--> kSuspect   (on_suspect + request_probe)
//   kSuspect --probe ack-------> kSuspect  (deadline extends; re-probed)
//   kSuspect --probe deadline--> kDead     (on_dead: confirmed)
//   kSuspect/kDead --heard------> kAlive   (on_restore; unless flap-damped,
//                                          then held suspect until decay)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "health/flap.h"
#include "health/phi.h"
#include "util/stat_fields.h"
#include "util/types.h"

namespace pa::obs {
class MetricsRegistry;
}

namespace pa::health {

using PeerId = std::uint64_t;

enum class PeerState : std::uint8_t { kAlive, kSuspect, kDead };

const char* peer_state_name(PeerState s);

struct HealthHooks {
  std::function<void(PeerId)> on_suspect;
  std::function<void(PeerId)> on_restore;
  std::function<void(PeerId)> on_dead;
  /// Launch one indirect probe round: ask up to HealthPlane::kProbeK other
  /// peers to contact `peer` and report back via note_probe_ack().
  std::function<void(PeerId)> request_probe;
};

// HealthPlane::Stats, one row per field (util/stat_fields.h). Every
// restore was a false suspicion.
#define PA_HEALTH_STATS(X)                                                     \
  X(std::uint64_t, suspects, "suspects_total", "",                             \
    "alive->suspect transitions (phi threshold or adopted suspicion)")         \
  X(std::uint64_t, restores, "restores_total", "",                             \
    "suspect/dead->alive transitions (peer heard, damper willing)")            \
  X(std::uint64_t, deads, "deads_total", "",                                   \
    "suspect->dead transitions (probe deadline lapsed unacked)")               \
  X(std::uint64_t, probes_requested, "probes_requested_total", "",             \
    "indirect probe rounds asked of the owner")                                \
  X(std::uint64_t, probe_acks, "probe_acks_total", "",                         \
    "witness probes that reached the target")                                  \
  X(std::uint64_t, flaps_damped, "flaps_damped_total", "",                     \
    "restores withheld by the flap damper")

class HealthPlane {
 public:
  /// Suspicion threshold: phi >= this marks the peer suspect (10^-phi
  /// chance the peer is merely late).
  static constexpr double kPhiSuspect = 8.0;
  /// Witnesses the owner is asked to recruit per probe round.
  static constexpr std::size_t kProbeK = 2;
  /// Grace between suspicion (or the last successful probe round) and the
  /// dead verdict: a few beacon intervals.
  static constexpr VtDur kProbeTimeout = vt_ms(100);

  explicit HealthPlane(HealthHooks hooks = {});

  /// Begin tracking a peer (initial state kAlive, nothing heard yet).
  void track(PeerId p);
  void forget(PeerId p);
  bool tracked(PeerId p) const { return peers_.count(p) != 0; }

  /// An arrival from the peer (gossip, beacon, data, ack — anything).
  /// Feeds the phi window; restores a suspect/dead peer unless damped.
  void note_heard(PeerId p, Vt now);

  /// A witness reached the peer: defer the dead verdict and extend the
  /// probe deadline (the peer is alive behind an asymmetric path).
  void note_probe_ack(PeerId p, Vt now);

  /// Adopt an external suspicion (a merged clique's partition-era verdict):
  /// an alive peer moves to suspect with a fresh probe deadline so the
  /// normal machinery re-judges it — the next arrival restores it, probe
  /// acks keep it suspect-not-dead. Does NOT fire on_suspect (the owner
  /// adopting a merge already recorded the suspicion); no-op on peers
  /// already suspect or dead.
  void mark_suspect(PeerId p, Vt now);

  /// Prime the peer's expected-interval distribution (beacon interval,
  /// adaptive-RTO srtt+4*rttvar) before real samples exist.
  void prime(PeerId p, VtDur interval, std::size_t count = 8);

  /// Evaluate every tracked peer's phi and advance the state machine.
  /// Returns the number of state transitions made.
  std::size_t tick(Vt now);

  PeerState state(PeerId p) const;

  struct Stats {
    static constexpr const char* kMetricPrefix = "health";
    PA_STAT_FIELDS(PA_HEALTH_STATS)
  };
  const Stats& stats() const { return stats_; }

  /// Bind this plane's counters (`<prefix>_*`, default `health_*`) and its
  /// tracked-peer gauge read-through into `reg`. The plane must outlive the
  /// registry.
  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix = Stats::kMetricPrefix) const;

 private:
  struct Peer {
    PhiDetector phi;
    FlapDamper flap;
    PeerState state = PeerState::kAlive;
    Vt deadline = 0;          // suspect: when the dead verdict lands
    bool probe_acked = false; // a witness reached it this round
    bool restore_pending = false;  // heard, but the damper held it
  };

  void request_probe(PeerId p, Peer& peer, Vt now);
  void restore(PeerId p, Peer& peer);

  HealthHooks hooks_;
  std::map<PeerId, Peer> peers_;
  Stats stats_;
};

}  // namespace pa::health
