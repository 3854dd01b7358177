// Per-node connection router (paper Figure 2: "Router (which delivers
// messages to the correct PA)").
//
// PA mode: frames are located by the 62-bit connection cookie in the
// preamble. A frame with an unknown cookie and no connection identification
// is dropped (paper §2.2); a frame carrying the identification is matched
// against every connection's expected identification, which also teaches
// the router the new cookie.
//
// Classic mode: every frame carries full addresses; the router scans
// connections for a match on every frame — the per-message lookup cost the
// cookie scheme eliminates (cf. PathIDs' 31% latency win, paper §2.2).
//
// Robustness extensions:
//   - cookie collisions (two connections presenting the same 62-bit cookie)
//     poison the entry: the cookie routes nobody until an identification
//     re-teaches it, so a frame is never delivered to the wrong connection;
//   - when a connection re-identifies with a new cookie (peer restarted,
//     cookie epoch bumped), the old cookie is remembered as stale and
//     frames still carrying it are dropped as such, not misrouted;
//   - reset() models a node crash: all learned state is forgotten.
//
// Churn-storm hardening (the health plane's router leg):
//   - per-cookie failed-ident quotas: a cookie whose identification keeps
//     matching nobody stops buying O(engines) scans — further attempts are
//     shed as DropReason::kIdentQuota until its window expires;
//   - an idle-cookie reaper on a lazy timer (no timer wheel: the next
//     arrival's timestamp drives it) forgets learned cookies that carried
//     no traffic for cookie_idle_timeout, so a churn storm cannot grow the
//     cookie table without bound — a reaped live peer just re-identifies;
//   - a storm detector feeds the overload governor: each fresh-ident scan,
//     quota shed or unknown cookie reports churn pressure 1.0 and each
//     established cookie-routed frame reports 0.0, so a join storm raises
//     the ladder (arming reject_new_idents) even when nothing else is hot.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "horus/engine.h"
#include "pa/drop_reason.h"
#include "resil/governor.h"
#include "util/stat_fields.h"

namespace pa {

// Router::Stats' counters, one row per field (util/stat_fields.h).
#define PA_ROUTER_STATS(X)                                                     \
  X(std::uint64_t, routed_by_cookie, "routed_by_cookie_total", "",             \
    "frames routed by connection cookie")                                      \
  X(std::uint64_t, routed_by_ident, "routed_by_ident_total", "",               \
    "frames routed by full connection identification")                         \
  X(std::uint64_t, group_frames, "group_frames_total", "",                     \
    "frames fanned out by a registered group cookie")                          \
  X(std::uint64_t, group_deliveries, "group_deliveries_total", "",             \
    "engine deliveries produced by group-cookie fanout")                       \
  X(std::uint64_t, cookies_reaped, "cookies_reaped_total", "",                 \
    "idle learned cookies forgotten by the reaper")                            \
  X(std::uint64_t, churn_events, "churn_events_total", "",                     \
    "ident-storm events reported to the overload governor")

class Router {
 public:
  enum class Kind { kPa, kClassic };

  struct Stats {
    static constexpr const char* kMetricPrefix = "pa_router";
    PA_STAT_FIELDS(PA_ROUTER_STATS)
    DropCounters drops;  // every dropped frame, by reason
  };

  /// Churn-storm hardening knobs. Quotas default on (they only throttle
  /// identifications that already failed); the idle reaper defaults off
  /// (0) — hosts with real time flowing opt in.
  struct ChurnConfig {
    /// Failed identifications one cookie may buy per window before further
    /// attempts are shed as kIdentQuota (0 = quota off).
    std::uint32_t ident_quota = 3;
    VtDur ident_quota_window = vt_ms(50);
    /// Bound on the quota table; at the cap, expired entries are swept and
    /// as a last resort the table is cleared (a storm already owns it).
    std::size_t quota_table_cap = 4096;
    /// Learned cookies idle longer than this are forgotten (0 = off).
    VtDur cookie_idle_timeout = 0;
    /// Lazy-reap cadence: at most one sweep per this interval, triggered
    /// by whatever frame arrives next (no dedicated timer).
    VtDur reap_interval = vt_ms(100);
  };

  explicit Router(Kind kind = Kind::kPa) : kind_(kind) {}

  void set_kind(Kind kind) { kind_ = kind; }
  Kind kind() const { return kind_; }

  /// Overload governor (non-owning, may be null): at Saturated and above the
  /// router rate-limits the O(engines) identification scan for cookies it
  /// has never seen — established traffic keeps its O(log n) cookie lookup,
  /// fresh conn-idents beyond a small scan budget are shed
  /// (DropReason::kShedNewConn). The budget (burst + 1-in-N escape) keeps a
  /// live peer's re-identification from being starved forever.
  void set_governor(resil::OverloadGovernor* g) { governor_ = g; }

  void set_churn_config(const ChurnConfig& c) { churn_ = c; }
  const ChurnConfig& churn_config() const { return churn_; }

  void add(Engine* engine) { engines_.push_back(engine); }
  const std::vector<Engine*>& engines() const { return engines_; }

  /// Pre-agreed-cookie extension: install a cookie→connection mapping out
  /// of band so the first message needs no connection identification.
  void register_cookie(std::uint64_t cookie, Engine* engine) {
    learn(cookie, engine, now_hint_);
  }

  /// Group-cookie fanout: a frame whose cookie matches a registered group
  /// is delivered to every member engine (each delivery is a WireFrame
  /// copy — slice refcount bumps, no byte copies), so colocated group
  /// members share one frame on the wire. Unlike learned cookies this is
  /// static configuration, installed out of band by the group layer; it is
  /// not collision-checked against learned cookies and survives reset().
  void register_group(std::uint64_t cookie, std::vector<Engine*> members) {
    groups_[cookie] = std::move(members);
  }
  void unregister_group(std::uint64_t cookie) { groups_.erase(cookie); }

  /// If the frame is a cookie-only PA frame whose cookie names a
  /// registered group, count the fanout and return the member list;
  /// nullptr otherwise. on_frame() and host dispatch loops (sim world,
  /// real net) both consult this before the unicast tables, so the
  /// caller owns delivering one WireFrame copy per member.
  const std::vector<Engine*>* group_route(const WireFrame& frame);

  /// Locate the connection for a frame (learning cookies as a side
  /// effect). Returns nullptr when the frame must be dropped. Routing only
  /// inspects the leading header bytes, which every engine-emitted frame
  /// keeps in its first slice — the gather-list overload peeks there.
  /// `at` stamps cookie liveness and drives the quota windows and the lazy
  /// reaper; the timeless overloads reuse the last timestamp seen.
  Engine* route(std::span<const std::uint8_t> frame, Vt at);
  Engine* route(std::span<const std::uint8_t> frame) {
    return route(frame, now_hint_);
  }
  Engine* route(const WireFrame& frame, Vt at) {
    return route(frame.first(), at);
  }
  Engine* route(const WireFrame& frame) { return route(frame.first()); }

  /// route() + dispatch.
  void on_frame(WireFrame frame, Vt at);
  void on_frame(std::vector<std::uint8_t> frame, Vt at) {
    on_frame(WireFrame::adopt(std::move(frame)), at);
  }

  /// Forget all learned cookie state (node crash model). Registered
  /// connections stay; they must re-identify.
  void reset() {
    by_cookie_.clear();
    ambiguous_.clear();
    stale_.clear();
    ident_attempts_.clear();
  }

  const Stats& stats() const { return stats_; }
  std::size_t cookie_table_size() const { return by_cookie_.size(); }

 private:
  struct CookieEntry {
    Engine* engine = nullptr;
    Vt last_seen = 0;  // stamped per routed frame; drives the idle reaper
  };
  struct IdentAttempts {
    std::uint32_t failures = 0;
    Vt window_start = 0;
  };

  void learn(std::uint64_t cookie, Engine* engine, Vt at = 0);
  /// Lazy idle-cookie reap: a no-op until reap_interval has passed since
  /// the last sweep (the arriving frame's timestamp is the clock).
  void maybe_reap(Vt at);
  /// True when the cookie has burned its failed-ident budget this window.
  bool quota_exceeded(std::uint64_t cookie, Vt at);
  void note_ident_failure(std::uint64_t cookie, Vt at);
  void report_churn_event(Vt at);

  // Governed ident-scan budget: entering overload grants a small burst of
  // scans, then one per kGovernedScanEvery unknown-cookie frames as an
  // escape hatch (see route()).
  static constexpr std::uint32_t kIdentScanBurst = 4;
  static constexpr std::uint32_t kGovernedScanEvery = 64;

  Kind kind_;
  resil::OverloadGovernor* governor_ = nullptr;
  ChurnConfig churn_;
  std::uint32_t ident_scan_credit_ = kIdentScanBurst;
  std::uint64_t governed_scan_misses_ = 0;
  Vt now_hint_ = 0;      // latest timestamp seen (for timeless route calls)
  Vt next_reap_at_ = 0;  // lazy reaper deadline
  std::vector<Engine*> engines_;
  std::map<std::uint64_t, CookieEntry> by_cookie_;
  std::map<std::uint64_t, IdentAttempts> ident_attempts_;  // failed idents
  std::map<std::uint64_t, std::vector<Engine*>> groups_;  // fanout bindings
  std::set<std::uint64_t> ambiguous_;  // collided cookies: route nobody
  std::set<std::uint64_t> stale_;      // superseded by a newer epoch
  Stats stats_;
};

}  // namespace pa
