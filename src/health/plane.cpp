#include "health/plane.h"

#include "obs/bridge.h"

namespace pa::health {

const char* peer_state_name(PeerState s) {
  switch (s) {
    case PeerState::kAlive:
      return "alive";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  return "?";
}

HealthPlane::HealthPlane(HealthHooks hooks) : hooks_(std::move(hooks)) {}

void HealthPlane::track(PeerId p) { peers_.try_emplace(p); }

void HealthPlane::forget(PeerId p) { peers_.erase(p); }

void HealthPlane::note_heard(PeerId p, Vt now) {
  auto it = peers_.find(p);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  peer.phi.note_arrival(now);
  if (peer.state == PeerState::kAlive) return;

  // Hearing a suspect/dead peer is a flap: penalize once per episode, then
  // restore only if the damper clears it. A damped peer keeps collecting
  // arrivals (so its phi window is warm when it is finally released) but
  // stays down until the score decays.
  if (peer.restore_pending) {
    if (peer.flap.restore_allowed(now)) restore(p, peer);
    return;
  }
  peer.flap.note_flap(now);
  peer.restore_pending = true;
  if (peer.flap.restore_allowed(now)) {
    restore(p, peer);
  } else {
    ++stats_.flaps_damped;
  }
}

void HealthPlane::note_probe_ack(PeerId p, Vt now) {
  auto it = peers_.find(p);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  ++stats_.probe_acks;
  if (peer.state != PeerState::kSuspect) return;
  peer.probe_acked = true;
  peer.deadline = now + kProbeTimeout;
}

void HealthPlane::mark_suspect(PeerId p, Vt now) {
  auto it = peers_.find(p);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  if (peer.state != PeerState::kAlive) return;
  peer.state = PeerState::kSuspect;
  peer.restore_pending = false;
  peer.probe_acked = false;
  peer.deadline = now + kProbeTimeout;
  ++stats_.suspects;
}

void HealthPlane::prime(PeerId p, VtDur interval, std::size_t count) {
  auto it = peers_.find(p);
  if (it != peers_.end()) it->second.phi.prime(interval, count);
}

void HealthPlane::request_probe(PeerId p, Peer& peer, Vt now) {
  peer.probe_acked = false;
  peer.deadline = now + kProbeTimeout;
  ++stats_.probes_requested;
  if (hooks_.request_probe) hooks_.request_probe(p);
}

void HealthPlane::restore(PeerId p, Peer& peer) {
  peer.state = PeerState::kAlive;
  peer.restore_pending = false;
  peer.probe_acked = false;
  ++stats_.restores;
  if (hooks_.on_restore) hooks_.on_restore(p);
}

std::size_t HealthPlane::tick(Vt now) {
  std::size_t transitions = 0;
  for (auto& [id, peer] : peers_) {
    const double ph = peer.phi.phi(now);
    switch (peer.state) {
      case PeerState::kAlive:
        if (ph >= kPhiSuspect) {
          peer.state = PeerState::kSuspect;
          peer.restore_pending = false;
          ++stats_.suspects;
          ++transitions;
          if (hooks_.on_suspect) hooks_.on_suspect(id);
          request_probe(id, peer, now);
        }
        break;
      case PeerState::kSuspect:
        // A damper-held restore releases as soon as the score decays.
        if (peer.restore_pending && peer.flap.restore_allowed(now)) {
          restore(id, peer);
          ++transitions;
          break;
        }
        if (now >= peer.deadline) {
          if (peer.probe_acked) {
            // A witness reached it last round: still alive, still
            // unreachable from here. Keep it suspect and re-verify.
            request_probe(id, peer, now);
          } else {
            peer.state = PeerState::kDead;
            ++stats_.deads;
            ++transitions;
            if (hooks_.on_dead) hooks_.on_dead(id);
          }
        }
        break;
      case PeerState::kDead:
        if (peer.restore_pending && peer.flap.restore_allowed(now)) {
          restore(id, peer);
          ++transitions;
        }
        break;
    }
  }
  return transitions;
}

void HealthPlane::bind_stats(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
  reg.gauge_fn(prefix + "_tracked_peers", "peers the health plane is tracking",
               "", [this] { return static_cast<double>(peers_.size()); });
}

PeerState HealthPlane::state(PeerId p) const {
  auto it = peers_.find(p);
  return it == peers_.end() ? PeerState::kAlive : it->second.state;
}

}  // namespace pa::health
