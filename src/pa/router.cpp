#include "pa/router.h"

#include "pa/preamble.h"

namespace pa {

void Router::learn(std::uint64_t cookie, Engine* engine) {
  stale_.erase(cookie);
  ident_attempts_.erase(cookie);  // a successful ident clears its quota debt
  auto [it, inserted] = by_cookie_.try_emplace(cookie, engine);
  if (!inserted && it->second != engine) {
    // Two live connections presenting the same cookie: neither may receive
    // the other's frames, so the entry is poisoned instead of overwritten.
    by_cookie_.erase(it);
    ambiguous_.insert(cookie);
    return;
  }
  ambiguous_.erase(cookie);
  if (inserted) {
    // A connection re-identifying under a fresh cookie (restart bumped its
    // epoch) supersedes its old mappings: mark them stale so late frames
    // are classified, not treated as unknown.
    for (auto old = by_cookie_.begin(); old != by_cookie_.end();) {
      if (old->second == engine && old->first != cookie) {
        stale_.insert(old->first);
        old = by_cookie_.erase(old);
      } else {
        ++old;
      }
    }
  }
}

bool Router::quota_exceeded(std::uint64_t cookie, Vt at) {
  auto it = ident_attempts_.find(cookie);
  if (it == ident_attempts_.end()) return false;
  if (at - it->second.window_start >= kIdentQuotaWindow) {
    ident_attempts_.erase(it);  // window over: the cookie earns fresh tries
    return false;
  }
  return it->second.failures >= kIdentQuota;
}

void Router::note_ident_failure(std::uint64_t cookie, Vt at) {
  if (ident_attempts_.size() >= kQuotaTableCap &&
      ident_attempts_.find(cookie) == ident_attempts_.end()) {
    // At the cap: sweep expired windows; if a storm still owns the table,
    // restart it (losing counts is safer than unbounded growth).
    for (auto it = ident_attempts_.begin(); it != ident_attempts_.end();) {
      if (at - it->second.window_start >= kIdentQuotaWindow) {
        it = ident_attempts_.erase(it);
      } else {
        ++it;
      }
    }
    if (ident_attempts_.size() >= kQuotaTableCap) {
      ident_attempts_.clear();
    }
  }
  auto [it, inserted] = ident_attempts_.try_emplace(cookie);
  if (inserted || at - it->second.window_start >= kIdentQuotaWindow) {
    it->second.window_start = at;
    it->second.failures = 0;
  }
  ++it->second.failures;
}

void Router::report_churn_event(Vt at) {
  ++stats_.churn_events;
  (void)at;
  if (governor_) governor_->report_churn(1.0);
}

Engine* Router::route(std::span<const std::uint8_t> frame, Vt at) {
  if (at > now_hint_) now_hint_ = at;
  if (kind_ == Kind::kClassic) {
    for (Engine* e : engines_) {
      if (e->match_ident(frame)) {
        ++stats_.routed_by_ident;
        return e;
      }
    }
    stats_.drops.bump(DropReason::kNoIdentMatch);
    return nullptr;
  }

  auto p = decode_preamble(frame);
  if (!p) {
    stats_.drops.bump(DropReason::kMalformedPreamble);
    return nullptr;
  }
  if (!p->conn_ident_present) {
    auto it = by_cookie_.find(p->cookie);
    if (it == by_cookie_.end()) {
      // No identification and no usable mapping: classify, then drop
      // (paper §2.2 — "when in doubt, drop").
      if (ambiguous_.count(p->cookie)) {
        stats_.drops.bump(DropReason::kCookieCollision);
      } else if (stale_.count(p->cookie)) {
        stats_.drops.bump(DropReason::kStaleEpoch);
      } else {
        stats_.drops.bump(DropReason::kUnknownCookie);
      }
      report_churn_event(at);
      return nullptr;
    }
    ++stats_.routed_by_cookie;
    if (governor_) governor_->report_churn(0.0);
    return it->second;
  }
  if (governor_ && governor_->reject_new_idents()) {
    // Identification scans cost O(engines); under overload, cookies the
    // router already knows get through untouched and the *scan rate* for
    // unknown ones is capped instead of zeroed. A hard cutoff would wedge a
    // live connection whose reverse path first identifies itself during the
    // overload (its acks — the very traffic that relieves the pressure —
    // would be shed forever); the credit scheme keeps a garbage flood from
    // buying O(engines) work per datagram while a legitimate peer's
    // RTO-spaced re-identification still lands within a few tries.
    auto it = by_cookie_.find(p->cookie);
    if (it != by_cookie_.end()) {
      ++stats_.routed_by_cookie;
      governor_->report_churn(0.0);
      return it->second;
    }
    const bool escape = (++governed_scan_misses_ % kGovernedScanEvery) == 0;
    if (ident_scan_credit_ == 0 && !escape) {
      stats_.drops.bump(DropReason::kShedNewConn);
      report_churn_event(at);
      return nullptr;
    }
    if (ident_scan_credit_ > 0) --ident_scan_credit_;
  } else {
    ident_scan_credit_ = kIdentScanBurst;
    governed_scan_misses_ = 0;
  }
  // Every frame reaching here demands a fresh identification scan: that is
  // the storm detector's positive signal, quota shed or not.
  report_churn_event(at);
  if (quota_exceeded(p->cookie, at)) {
    stats_.drops.bump(DropReason::kIdentQuota);
    return nullptr;
  }
  for (Engine* e : engines_) {
    if (e->match_ident(frame)) {
      learn(p->cookie, e);
      ++stats_.routed_by_ident;
      return e;
    }
  }
  note_ident_failure(p->cookie, at);
  stats_.drops.bump(DropReason::kNoIdentMatch);
  return nullptr;
}

const std::vector<Engine*>* Router::group_route(const WireFrame& frame) {
  // Group-cookie fanout: one frame on the wire, N colocated deliveries.
  // Each delivery copies the WireFrame — a slice-vector copy whose chunks
  // are shared by refcount bump, so fanout degree never multiplies byte
  // copies. Checked before the unicast tables; a group cookie is installed
  // out of band and never collides with learned unicast cookies by
  // construction (the group layer registers the sending engine's own
  // cookie, which the members' routers would otherwise simply drop).
  if (kind_ != Kind::kPa || groups_.empty()) return nullptr;
  const auto p = decode_preamble(frame.first());
  if (!p || p->conn_ident_present) return nullptr;
  const auto git = groups_.find(p->cookie);
  if (git == groups_.end()) return nullptr;
  ++stats_.group_frames;
  stats_.group_deliveries += git->second.size();
  return &git->second;
}

void Router::on_frame(WireFrame frame, Vt at) {
  if (const std::vector<Engine*>* members = group_route(frame)) {
    for (std::size_t i = 0; i < members->size(); ++i) {
      if (i + 1 == members->size()) {
        (*members)[i]->on_frame(std::move(frame), at);
      } else {
        (*members)[i]->on_frame(frame, at);
      }
    }
    return;
  }
  if (Engine* e = route(frame, at)) e->on_frame(std::move(frame), at);
}

}  // namespace pa
