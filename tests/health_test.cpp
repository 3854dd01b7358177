// Health plane: phi-accrual suspicion, flap damping, indirect probing,
// partition-heal view merges, named partition sets, and the router's
// churn-storm hardening — the failure-detection machinery as units, before
// group_chaos_test exercises it end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "group/membership.h"
#include "health/flap.h"
#include "health/phi.h"
#include "health/plane.h"
#include "horus/world.h"
#include "pa/preamble.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace pa {
namespace {

using group::GroupView;
using group::MemberState;
using health::FlapDamper;
using health::HealthHooks;
using health::HealthPlane;
using health::PeerState;
using health::PhiDetector;

// ---------------------------------------------------------------------------
// Phi-accrual detector.
// ---------------------------------------------------------------------------

TEST(Phi, SilenceRaisesPhiMonotonically) {
  PhiDetector d;
  Vt t = vt_ms(10);
  for (int i = 0; i < 20; ++i) {
    d.note_arrival(t);
    t += vt_ms(10);
  }
  // From the last arrival, phi must be non-decreasing in silence and cross
  // any practical threshold eventually.
  double prev = d.phi(t);
  for (int k = 1; k <= 40; ++k) {
    const double cur = d.phi(t + vt_ms(10) * k);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_GT(prev, 8.0) << "40 missed intervals must read as near-certain";
}

TEST(Phi, OnTimeArrivalsKeepPhiLow) {
  PhiDetector d;
  Vt t = vt_ms(10);
  for (int i = 0; i < 64; ++i) {
    d.note_arrival(t);
    // Right after (and one interval after) an on-schedule arrival, phi is
    // far below any suspicion threshold.
    EXPECT_LT(d.phi(t), 1.0);
    EXPECT_LT(d.phi(t + vt_ms(10)), 2.0);
    t += vt_ms(10);
  }
}

TEST(Phi, NoisyLinkDemandsMoreSilence) {
  // Same mean interval, different jitter: at the same silence horizon the
  // noisy peer must be suspected LESS (wider variance absorbs lateness).
  PhiDetector regular, noisy;
  Vt tr = 0, tn = 0;
  for (int i = 0; i < 40; ++i) {
    tr += vt_ms(10);
    regular.note_arrival(tr);
    tn += (i % 2) ? vt_ms(18) : vt_ms(2);  // mean 10 ms, high variance
    noisy.note_arrival(tn);
  }
  const VtDur silence = vt_ms(30);
  EXPECT_GT(regular.phi(tr + silence), noisy.phi(tn + silence));
}

TEST(Phi, PrimeSeedsExpectationUntilRealSamplesDominate) {
  PhiDetector d;
  d.prime(vt_ms(100));
  d.note_arrival(vt_ms(100));  // anchor only
  // Primed for 100 ms beacons: 20 ms of silence is nothing, 800 ms is not.
  EXPECT_LT(d.phi(vt_ms(120)), 1.0);
  EXPECT_GT(d.phi(vt_ms(900)), 4.0);
  // Real (much faster) arrivals must override the primed distribution.
  Vt t = vt_ms(100);
  for (int i = 0; i < 64; ++i) {
    t += vt_ms(1);
    d.note_arrival(t);
  }
  EXPECT_GT(d.phi(t + vt_ms(30)), 4.0)
      << "30 missed 1 ms intervals must now read as suspicious";
}

TEST(Phi, NeverHeardIsNeverSuspected) {
  PhiDetector d;
  EXPECT_EQ(d.phi(vt_s(100)), 0.0);
  d.prime(vt_ms(10));
  EXPECT_EQ(d.phi(vt_s(100)), 0.0) << "priming alone must not anchor";
  EXPECT_FALSE(d.ever_heard());
}

TEST(Phi, ResetForgetsHistory) {
  PhiDetector d;
  Vt t = 0;
  for (int i = 0; i < 10; ++i) {
    t += vt_ms(5);
    d.note_arrival(t);
  }
  d.reset();
  EXPECT_FALSE(d.ever_heard());
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_EQ(d.phi(t + vt_s(10)), 0.0);
}

// ---------------------------------------------------------------------------
// Flap damper.
// ---------------------------------------------------------------------------

TEST(Flap, SingleFlapIsFree) {
  FlapDamper f;
  f.note_flap(vt_ms(100));
  EXPECT_TRUE(f.restore_allowed(vt_ms(101)));
}

TEST(Flap, RepeatedFlapsSuppressUntilDecay) {
  FlapDamper f;  // penalty 1, suppress 3, reuse 1.5, half-life 4 s
  Vt t = vt_ms(100);
  for (int i = 0; i < 4; ++i) {
    f.note_flap(t);
    t += vt_ms(50);
  }
  EXPECT_FALSE(f.restore_allowed(t)) << "four quick flaps must suppress";
  // Hysteresis: decaying below `suppress` (score ~3.3 after 1 s) is not
  // enough — release waits for `reuse`...
  EXPECT_FALSE(f.restore_allowed(t + vt_s(1)));
  // ...score ~3.9 halves below reuse=1.5 only after ~5.6 s of quiet.
  EXPECT_FALSE(f.restore_allowed(t + vt_s(5)));
  EXPECT_TRUE(f.restore_allowed(t + vt_s(7)));
}

TEST(Flap, CeilingBoundsSuppression) {
  FlapDamper f;
  Vt t = 0;
  for (int i = 0; i < 100; ++i) {
    f.note_flap(t);
    t += vt_ms(1);
  }
  EXPECT_LE(f.score(t), FlapDamper::kCeiling);
  // Score 8 halves to 1.5 (reuse) in 3 * half_life * log2(8/1.5)/3 — under
  // 10 s with the defaults; a peer is never suppressed unboundedly.
  EXPECT_TRUE(f.restore_allowed(t + vt_s(12)));
}

// ---------------------------------------------------------------------------
// HealthPlane state machine.
// ---------------------------------------------------------------------------

struct PlaneLog {
  std::vector<health::PeerId> suspected, restored, dead, probed;
  HealthHooks hooks() {
    HealthHooks h;
    h.on_suspect = [this](health::PeerId p) { suspected.push_back(p); };
    h.on_restore = [this](health::PeerId p) { restored.push_back(p); };
    h.on_dead = [this](health::PeerId p) { dead.push_back(p); };
    h.request_probe = [this](health::PeerId p) { probed.push_back(p); };
    return h;
  }
};

TEST(Plane, SilenceSuspectsThenConfirmsDead) {
  PlaneLog log;
  HealthPlane hp(log.hooks());
  hp.track(1);
  hp.prime(1, vt_ms(10));
  Vt t = 0;
  for (int i = 0; i < 20; ++i) {
    t += vt_ms(10);
    hp.note_heard(1, t);
  }
  EXPECT_EQ(hp.state(1), PeerState::kAlive);
  // Silence: phi crosses the threshold -> suspect + a probe round; the
  // probe deadline passes unanswered -> confirmed dead.
  for (int i = 0; i < 60 && log.dead.empty(); ++i) {
    t += vt_ms(10);
    hp.tick(t);
  }
  ASSERT_EQ(log.suspected, (std::vector<health::PeerId>{1}));
  ASSERT_FALSE(log.probed.empty());
  ASSERT_EQ(log.dead, (std::vector<health::PeerId>{1}));
  EXPECT_EQ(hp.state(1), PeerState::kDead);
  EXPECT_EQ(hp.stats().suspects, 1u);
  EXPECT_EQ(hp.stats().deads, 1u);
}

TEST(Plane, ProbeAckKeepsAsymmetricPeerSuspectNotDead) {
  PlaneLog log;
  Vt t = 0;
  HealthPlane* hpp = nullptr;
  // A witness can always reach the peer: answer every probe round at the
  // time it was requested.
  HealthHooks hooks = log.hooks();
  hooks.request_probe = [&](health::PeerId p) {
    log.probed.push_back(p);
    hpp->note_probe_ack(p, t);
  };
  HealthPlane hp(hooks);
  hpp = &hp;
  hp.track(1);
  hp.prime(1, vt_ms(10));
  for (int i = 0; i < 20; ++i) {
    t += vt_ms(10);
    hp.note_heard(1, t);
  }
  // Long silence toward us, but witnesses keep answering: the peer must
  // stay suspect forever — never confirmed dead.
  for (int i = 0; i < 200; ++i) {
    t += vt_ms(10);
    hp.tick(t);
  }
  EXPECT_EQ(hp.state(1), PeerState::kSuspect);
  EXPECT_TRUE(log.dead.empty());
  EXPECT_GT(hp.stats().probe_acks, 0u);
  EXPECT_GT(log.probed.size(), 1u) << "suspect must be re-probed";
}

TEST(Plane, HeardRestoresSuspect) {
  PlaneLog log;
  HealthPlane hp(log.hooks());
  hp.track(1);
  hp.prime(1, vt_ms(10));
  Vt t = 0;
  for (int i = 0; i < 20; ++i) {
    t += vt_ms(10);
    hp.note_heard(1, t);
  }
  while (hp.state(1) != PeerState::kSuspect) {
    t += vt_ms(10);
    hp.tick(t);
  }
  hp.note_heard(1, t + vt_ms(1));
  EXPECT_EQ(hp.state(1), PeerState::kAlive);
  EXPECT_EQ(log.restored, (std::vector<health::PeerId>{1}));
  EXPECT_EQ(hp.stats().restores, 1u);
}

TEST(Plane, FlappingPeerIsHeldSuspectUntilScoreDecays) {
  PlaneLog log;
  HealthPlane hp(log.hooks());
  hp.track(1);
  hp.prime(1, vt_ms(10));
  Vt t = 0;
  for (int i = 0; i < 20; ++i) {
    t += vt_ms(10);
    hp.note_heard(1, t);
  }
  // Bounce: suspect -> heard -> suspect, repeatedly and fast.
  int flaps = 0;
  for (int round = 0; round < 6; ++round) {
    while (hp.state(1) != PeerState::kSuspect) {
      t += vt_ms(10);
      hp.tick(t);
    }
    hp.note_heard(1, t + vt_ms(1));
    t += vt_ms(1);
    if (hp.state(1) == PeerState::kAlive) ++flaps;
  }
  // The damper must have withheld at least one restore: the peer sits
  // suspect even though we just heard it.
  EXPECT_LT(flaps, 6);
  EXPECT_EQ(hp.state(1), PeerState::kSuspect);
  EXPECT_GT(hp.stats().flaps_damped, 0u);
  // Hold still: keep being heard while the score decays, and the pending
  // restore lands.
  for (int i = 0; i < 4000 && hp.state(1) != PeerState::kAlive; ++i) {
    t += vt_ms(10);
    hp.note_heard(1, t);
    hp.tick(t);
  }
  EXPECT_EQ(hp.state(1), PeerState::kAlive);
}

TEST(Plane, ForgetDropsPeer) {
  PlaneLog log;
  HealthPlane hp(log.hooks());
  hp.track(7);
  EXPECT_TRUE(hp.tracked(7));
  hp.forget(7);
  EXPECT_FALSE(hp.tracked(7));
  EXPECT_EQ(hp.tick(vt_s(10)), 0u);
}

// ---------------------------------------------------------------------------
// GroupView: divergence detection and deterministic merge.
// ---------------------------------------------------------------------------

TEST(ViewMerge, DivergenceDetection) {
  GroupView v(1);
  v.join(0);
  v.join(1);
  // No-information echo is not divergence.
  EXPECT_FALSE(v.divergent(0, 0));
  // Our own (epoch, digest) is not divergence.
  EXPECT_FALSE(v.divergent(v.epoch(), v.digest()));
  // Same epoch, different digest: a view we never issued.
  EXPECT_TRUE(v.divergent(v.epoch(), v.digest() ^ 1));
  // An epoch ahead of ours: the other clique moved on without us.
  EXPECT_TRUE(v.divergent(v.epoch() + 1, 12345));
  // An older epoch is just a stale echo.
  EXPECT_FALSE(v.divergent(v.epoch() - 1, 999));
}

TEST(ViewMerge, MergeIsCommutative) {
  // Two cliques diverge: each suspects the members it lost and keeps
  // evolving. Merging a<-b and b<-a must land on the same member table and
  // digest regardless of direction.
  auto build = [] {
    GroupView v(1);
    for (group::MemberId m = 0; m < 6; ++m) v.join(m);
    return v;
  };
  GroupView a = build(), b = build();
  a.suspect(3);
  a.suspect(4);
  a.leave(5);
  b.suspect(0);
  b.join(6, 2);  // b admitted a new member during the partition

  GroupView a2 = a, b2 = b;
  auto ra = a2.merge(b.snapshot());
  auto rb = b2.merge(a.snapshot());
  EXPECT_TRUE(ra.changed);
  EXPECT_TRUE(rb.changed);
  EXPECT_EQ(a2.digest(), b2.digest()) << "merge must be direction-agnostic";
  EXPECT_EQ(a2.epoch(), b2.epoch());
  EXPECT_EQ(a2.members().size(), 7u);
  // Every suspect in the merged view is listed for re-probing.
  std::vector<group::MemberId> suspects;
  for (const auto& [id, m] : a2.members()) {
    if (m.state == MemberState::kSuspect) suspects.push_back(id);
  }
  EXPECT_EQ(ra.reprobe, suspects);
  EXPECT_EQ(rb.reprobe, suspects);
  EXPECT_EQ(a2.stats().merges, 1u);
}

TEST(ViewMerge, MaxEpochWinsAndCautiousStateBreaksTies) {
  GroupView ours(1);
  ours.join(0);
  ours.join(1);  // epoch 2

  // A snapshot with a HIGHER epoch says member 1 left: its verdict wins.
  GroupView::ViewSnapshot newer;
  newer.id = 1;
  newer.epoch = 10;
  newer.members = {{0, MemberState::kJoined, 1}, {1, MemberState::kLeft, 1}};
  auto r = ours.merge(newer);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.conflicts, 1u);
  EXPECT_EQ(ours.find(1)->state, MemberState::kLeft);
  // Merged view supersedes both inputs.
  EXPECT_GT(ours.epoch(), 10);

  // Equal-epoch conflict: the more cautious state (suspect over joined)
  // wins, whichever side reports it.
  GroupView x(2), y(2);
  x.join(0);
  y.join(0);
  y.suspect(0);
  x.join(9);  // level the epochs (x: 2 bumps, y: 2 bumps)
  ASSERT_EQ(x.epoch(), y.epoch());
  GroupView x2 = x, y2 = y;
  x2.merge(y.snapshot());
  y2.merge(x.snapshot());
  EXPECT_EQ(x2.find(0)->state, MemberState::kSuspect);
  EXPECT_EQ(y2.find(0)->state, MemberState::kSuspect);
  EXPECT_EQ(x2.digest(), y2.digest());
}

TEST(ViewMerge, IdenticalViewsMergeAsNoOp) {
  GroupView a(1), b(1);
  a.join(0);
  a.join(1);
  b.join(0);
  b.join(1);
  const std::uint16_t epoch_before = a.epoch();
  auto r = a.merge(b.snapshot());
  EXPECT_FALSE(r.changed);
  EXPECT_EQ(r.added, 0u);
  EXPECT_EQ(r.conflicts, 0u);
  // No content change: the epoch must NOT bump, or two agreeing cliques
  // would supersede each other forever.
  EXPECT_EQ(a.epoch(), epoch_before);
}

// ---------------------------------------------------------------------------
// Named partition sets (sim/network).
// ---------------------------------------------------------------------------

struct PartitionRig {
  EventQueue q;
  Rng rng{1};
  SimNetwork net{q, rng};
  NodeId a, b, c;
  std::uint64_t to_a = 0, to_b = 0, to_c = 0;

  PartitionRig() {
    a = net.add_node("a", [this](NodeId, WireFrame, Vt) { ++to_a; });
    b = net.add_node("b", [this](NodeId, WireFrame, Vt) { ++to_b; });
    c = net.add_node("c", [this](NodeId, WireFrame, Vt) { ++to_c; });
  }
  void send_all_pairs() {
    for (NodeId from : {a, b, c}) {
      for (NodeId to : {a, b, c}) {
        if (from != to) net.send(from, to, std::vector<std::uint8_t>(8, 1), q.now());
      }
    }
    q.run();
  }
};

TEST(PartitionSet, BothModeCutsBoundaryBothWaysOnly) {
  PartitionRig r;
  r.net.set_partition("island", {r.a}, PartitionMode::kBoth);
  EXPECT_TRUE(r.net.has_partition("island"));
  r.send_all_pairs();
  // a exchanges nothing with b/c; b<->c is untouched.
  EXPECT_EQ(r.to_a, 0u);
  EXPECT_EQ(r.to_b, 1u);  // from c only
  EXPECT_EQ(r.to_c, 1u);  // from b only
  EXPECT_EQ(r.net.stats().frames_blackholed, 4u);

  r.net.clear_partition("island");
  EXPECT_FALSE(r.net.has_partition("island"));
  r.send_all_pairs();
  EXPECT_EQ(r.to_a, 2u);
  EXPECT_EQ(r.to_b, 3u);
  EXPECT_EQ(r.to_c, 3u);
}

TEST(PartitionSet, TxOnlyIsAsymmetric) {
  PartitionRig r;
  // a's transmit path across the boundary is dead; a still hears b/c (the
  // half-dead-NIC model the indirect probes exist for).
  r.net.set_partition("mute", {r.a}, PartitionMode::kTxOnly);
  r.send_all_pairs();
  EXPECT_EQ(r.to_a, 2u) << "rx into the set must still flow";
  EXPECT_EQ(r.to_b, 1u) << "a->b must be cut";
  EXPECT_EQ(r.to_c, 1u);
  EXPECT_EQ(r.net.stats().frames_blackholed, 2u);
}

TEST(PartitionSet, RxOnlyIsTheMirrorImage) {
  PartitionRig r;
  r.net.set_partition("deaf", {r.a}, PartitionMode::kRxOnly);
  r.send_all_pairs();
  EXPECT_EQ(r.to_a, 0u) << "rx into the set must be cut";
  EXPECT_EQ(r.to_b, 2u) << "a->b must still flow";
  EXPECT_EQ(r.to_c, 2u);
  EXPECT_EQ(r.net.stats().frames_blackholed, 2u);
}

TEST(PartitionSet, SameSideTrafficFlowsInsideTheSet) {
  PartitionRig r;
  r.net.set_partition("pair", {r.a, r.b}, PartitionMode::kBoth);
  r.send_all_pairs();
  // a<->b are on the same side: their traffic flows; only the c boundary
  // is cut.
  EXPECT_EQ(r.to_a, 1u);
  EXPECT_EQ(r.to_b, 1u);
  EXPECT_EQ(r.to_c, 0u);
}

TEST(PartitionSet, OverlappingSetsComposeAndHealIndependently) {
  PartitionRig r;
  r.net.set_partition("p1", {r.a}, PartitionMode::kBoth);
  r.net.set_partition("p2", {r.b}, PartitionMode::kBoth);
  r.send_all_pairs();
  EXPECT_EQ(r.to_a, 0u);
  EXPECT_EQ(r.to_b, 0u);
  EXPECT_EQ(r.to_c, 0u);  // both neighbors are islanded
  r.net.clear_partition("p1");
  r.send_all_pairs();
  // p2 still isolates b; a<->c is whole again.
  EXPECT_EQ(r.to_a, 1u);
  EXPECT_EQ(r.to_b, 0u);
  EXPECT_EQ(r.to_c, 1u);
}

// ---------------------------------------------------------------------------
// Router churn-storm hardening.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ident_frame(std::uint64_t cookie) {
  // A preamble advertising a connection identification, followed by garbage
  // that matches no engine: the shape of a churn-storm datagram.
  std::vector<std::uint8_t> f(kPreambleBytes + 32, 0xee);
  encode_preamble(f.data(), Preamble{true, Endian::kBig, cookie});
  return f;
}

TEST(RouterChurn, IdentQuotaShedsRepeatedFailures) {
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [ea, eb] = w.connect(a, b, ConnOptions{});
  (void)ea;
  (void)eb;

  Router& r = b.router();
  const auto quota = Router::kIdentQuota;
  ASSERT_GT(quota, 0u);
  const auto frame = ident_frame(0xbad'c00cull);
  for (std::uint32_t i = 0; i < quota; ++i) {
    EXPECT_EQ(r.route(frame, vt_ms(1)), nullptr);
  }
  EXPECT_EQ(r.stats().drops[DropReason::kNoIdentMatch], quota);
  EXPECT_EQ(r.stats().drops[DropReason::kIdentQuota], 0u);
  // The quota is burned: further attempts this window are shed without the
  // O(engines) scan.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.route(frame, vt_ms(2)), nullptr);
  EXPECT_EQ(r.stats().drops[DropReason::kNoIdentMatch], quota)
      << "no further scans";
  EXPECT_EQ(r.stats().drops[DropReason::kIdentQuota], 5u);
  // A new window restores the budget.
  const Vt later = vt_ms(2) + Router::kIdentQuotaWindow;
  EXPECT_EQ(r.route(frame, later), nullptr);
  EXPECT_EQ(r.stats().drops[DropReason::kNoIdentMatch], quota + 1);
}

TEST(RouterChurn, QuotaIsPerCookieAndClearedByASuccessfulIdent) {
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [ea, eb] = w.connect(a, b, ConnOptions{});
  (void)ea;

  Router& r = b.router();
  const auto quota = Router::kIdentQuota;
  // Burn cookie A's budget; cookie B still gets its scans.
  for (std::uint32_t i = 0; i <= quota; ++i) {
    r.route(ident_frame(0xaaaaull), vt_ms(1));
  }
  EXPECT_EQ(r.stats().drops[DropReason::kIdentQuota], 1u);
  r.route(ident_frame(0xbbbbull), vt_ms(1));
  EXPECT_EQ(r.stats().drops[DropReason::kIdentQuota], 1u)
      << "other cookies unaffected";

  // A successful identification under a quota-burdened cookie clears its
  // debt (the learn path erases the attempts entry).
  r.register_cookie(0xaaaaull, &eb->engine());
  std::vector<std::uint8_t> good(kPreambleBytes);
  encode_preamble(good.data(), Preamble{false, Endian::kBig, 0xaaaaull});
  EXPECT_EQ(r.route(good, vt_ms(1)), &eb->engine());
}

TEST(RouterChurn, StormRaisesGovernorLadder) {
  World w((WorldConfig()));
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [ea, eb] = w.connect(a, b, ConnOptions{});
  (void)ea;
  (void)eb;

  resil::OverloadGovernor gov;
  Router& r = b.router();
  r.set_governor(&gov);
  // A storm: every datagram demands a fresh ident scan for a new cookie.
  Vt t = vt_ms(1);
  for (std::uint64_t i = 0; i < 400; ++i) {
    t += vt_us(200);
    r.route(ident_frame(0x9000ull + i), t);
    gov.tick(t);
  }
  EXPECT_GT(r.stats().churn_events, 0u);
  EXPECT_GE(gov.max_level(), resil::OverloadLevel::kSaturated)
      << "pure churn must climb the ladder on its own, pressure="
      << gov.pressure();
  // And an established flow's cookie-routed frames pull the signal back
  // down (0.0 per frame) once the storm stops.
  const std::uint64_t storm_events = r.stats().churn_events;
  std::vector<std::uint8_t> good(kPreambleBytes);
  r.register_cookie(0x50adull, &eb->engine());
  encode_preamble(good.data(), Preamble{false, Endian::kBig, 0x50adull});
  for (int i = 0; i < 4000; ++i) {
    t += vt_us(200);
    r.route(good, t);
    gov.tick(t);
  }
  EXPECT_EQ(r.stats().churn_events, storm_events);
  EXPECT_EQ(gov.level(), resil::OverloadLevel::kNormal)
      << "established traffic must drain the churn signal";
}

}  // namespace
}  // namespace pa
