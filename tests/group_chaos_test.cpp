// Membership churn under chaos, with exact shed accounting.
//
// A 100-member McastGroup is driven through partitions, Gilbert–Elliott
// burst loss and member-node restarts while a steady mcast stream flows.
// After healing, the view must converge (every member restored, echoing the
// final epoch+digest) and every member must hold the complete stream — the
// window layers repair whatever the chaos swallowed.
//
// The shed tests pin down the overload story: every refused send and every
// shed beacon is accounted against a DropReason counter, exactly — loss
// with receipt, never silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "group/mcast.h"
#include "health/plane.h"
#include "horus/world.h"
#include "obs/metrics.h"
#include "resil/governor.h"
#include "sim/network.h"

namespace pa {
namespace {

using group::GroupView;
using group::McastGroup;
using group::McastOptions;
using group::MemberId;
using group::MemberState;
using resil::OverloadGovernor;
using resil::OverloadLevel;

// --- churn: partitions + burst loss + restarts against 100 members ---------

TEST(GroupChaos, HundredMemberChurnConverges) {
  WorldConfig wc;
  wc.seed = 20260807;
  World w(wc);
  // 100 connections' worth of protocol timers and ack processing is real
  // (simulated) CPU work: an 8-way hub keeps the coordinator from falling
  // behind virtual time. Beacons are paced accordingly — at 100 members a
  // 10 ms beacon interval alone saturates one modeled CPU.
  auto& hub = w.add_node("hub", 8);
  std::vector<Node*> members;
  members.reserve(100);
  for (int i = 0; i < 100; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }

  McastOptions opt;
  opt.beacon_interval = vt_ms(50);
  McastGroup g(w, hub, members, opt);

  std::vector<std::uint64_t> got(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    g.on_deliver(static_cast<MemberId>(i),
                 [&got, i](MemberId, std::uint32_t,
                           std::span<const std::uint8_t>) { ++got[i]; });
  }

  // Steady stream: one mcast every 5 ms across the whole chaos window.
  const std::uint32_t kMcasts = 200;
  const std::vector<std::uint8_t> payload(128, 0x5a);
  for (std::uint32_t k = 0; k < kMcasts; ++k) {
    w.queue().at(vt_ms(5) * (k + 1), [&g, &payload] { g.mcast(payload); });
  }
  // Health-plane tick, as an application would run it.
  for (int k = 0; k < 150; ++k) {
    w.queue().at(vt_ms(20) * (k + 1), [&g] { g.poll(); });
  }

  const std::vector<int> kPartitioned = {3, 17, 42};
  const std::vector<int> kBursty = {60, 61, 62};
  const std::vector<int> kRestarted = {80, 81};

  // t=200ms: partitions open and burst loss begins.
  w.queue().at(vt_ms(200), [&] {
    for (int i : kPartitioned) w.partition(hub, *members[i]);
    for (int i : kBursty) {
      for (auto [from, to] : {std::pair{hub.id(), members[i]->id()},
                              std::pair{members[i]->id(), hub.id()}}) {
        LinkParams lp = w.network().link(from, to);
        lp.faults.ge_enabled = true;
        lp.faults.ge_p_good_to_bad = 0.1;
        lp.faults.ge_p_bad_to_good = 0.2;
        lp.faults.ge_loss_bad = 0.9;
        w.network().set_link(from, to, lp);
      }
    }
  });
  // t=350ms: two member nodes crash+restart mid-stream (their routers
  // forget the pre-agreed cookies; ident-bearing retransmits re-teach).
  w.queue().at(vt_ms(350), [&] {
    for (int i : kRestarted) w.restart_node(*members[i]);
  });
  // t=500ms: heal everything.
  w.queue().at(vt_ms(500), [&] {
    for (int i : kPartitioned) w.heal(hub, *members[i]);
    for (int i : kBursty) {
      for (auto [from, to] : {std::pair{hub.id(), members[i]->id()},
                              std::pair{members[i]->id(), hub.id()}}) {
        LinkParams lp = w.network().link(from, to);
        lp.faults.ge_enabled = false;
        w.network().set_link(from, to, lp);
      }
    }
  });

  w.run_until(vt_ms(1050));

  // Mid-chaos sanity: the partitioned members went silent long enough for
  // the health plane to suspect them, and healing restored them.
  EXPECT_GT(g.health().stats().suspects, 0u) << "the plane suspected nobody";
  EXPECT_GT(g.view().stats().suspects, 0u) << "nobody was ever suspected";
  EXPECT_GT(g.view().stats().restores, 0u) << "nobody was ever restored";

  // Convergence drain: bounded slices (beacons re-arm forever), polling
  // between them, until the stream is complete and the view has settled.
  bool done = false;
  for (int slice = 0; slice < 100 && !done; ++slice) {
    w.run_for(vt_ms(100));
    g.poll();
    done = g.view().converged() &&
           g.stats().delivered == static_cast<std::uint64_t>(kMcasts) *
                                      members.size();
  }

  // Every member is joined again and echoes the final view.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const group::Member* mb = g.view().find(static_cast<MemberId>(i));
    ASSERT_NE(mb, nullptr);
    EXPECT_EQ(mb->state, MemberState::kJoined) << "member " << i;
  }
  EXPECT_TRUE(g.view().converged());

  // Exact delivery accounting: chaos delayed the stream but lost none of
  // it — each member holds all kMcasts messages exactly once.
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(got[i], kMcasts) << "member " << i;
  }
  EXPECT_EQ(g.stats().delivered,
            static_cast<std::uint64_t>(kMcasts) * members.size());

  // Stability caught back up: every joined member acked the head.
  ASSERT_TRUE(g.stability().has_value());
  EXPECT_EQ(*g.stability(), g.last_seq());
  EXPECT_EQ(g.stability_lag(), 0u);
}

// --- 60/40 set partition + heal under the health plane ---------------------
//
// A named partition set isolates members 60..99 from the coordinator's side
// (hub + members 0..59) while a steady mcast stream flows. The phi-accrual
// plane must suspect exactly the isolated members, the witness probes (side-A
// witnesses, so every probe crosses the cut and blackholes) must fail into
// confirmed-dead verdicts, and the heal must restore every one — ending in a
// single converged view with exact skip/delivery accounting: every logical
// (mcast, member) pair was either delivered or skipped-while-left, nothing
// silently lost.

TEST(GroupChaos, SixtyFortyPartitionHealsToOneView) {
  WorldConfig wc;
  wc.seed = 20260808;
  World w(wc);
  auto& hub = w.add_node("hub", 8);
  std::vector<Node*> members;
  members.reserve(100);
  for (int i = 0; i < 100; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }

  McastOptions opt;
  opt.beacon_interval = vt_ms(50);
  McastGroup g(w, hub, members, opt);
  health::HealthPlane& hp = g.health();

  std::vector<std::uint64_t> got(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    g.on_deliver(static_cast<MemberId>(i),
                 [&got, i](MemberId, std::uint32_t,
                           std::span<const std::uint8_t>) { ++got[i]; });
  }

  const std::uint32_t kMcasts = 200;
  const std::vector<std::uint8_t> payload(128, 0x5a);
  for (std::uint32_t k = 0; k < kMcasts; ++k) {
    w.queue().at(vt_ms(5) * (k + 1), [&g, &payload] { g.mcast(payload); });
  }
  for (int k = 0; k < 150; ++k) {
    w.queue().at(vt_ms(20) * (k + 1), [&g] { g.poll(); });
  }

  // t=200ms: cut the boundary around {hub, m0..m59}. Members 60..99 are on
  // the far side; traffic inside each side still flows.
  w.queue().at(vt_ms(200), [&] {
    std::vector<Node*> side_a{&hub};
    for (int i = 0; i < 60; ++i) side_a.push_back(members[i]);
    w.partition_set("split", side_a);
  });
  // t=600ms: heal. The isolated members' beacons resume and the plane
  // restores them (one flap each — well under the damper's threshold).
  w.queue().at(vt_ms(600), [&] { w.heal_set("split"); });

  w.run_until(vt_ms(1100));

  // Convergence drain: beacons re-arm forever, so run bounded slices until
  // the stream has quiesced and every member echoes the final view.
  bool done = false;
  for (int slice = 0; slice < 100 && !done; ++slice) {
    w.run_for(vt_ms(100));
    g.poll();
    done = g.view().converged() &&
           g.stats().delivered + g.stats().skipped_left ==
               static_cast<std::uint64_t>(kMcasts) * members.size();
  }

  // Exact suspect accounting: precisely the 40 isolated members were
  // suspected, confirmed dead (their witness probes crossed the cut and
  // blackholed), and restored after the heal. Nobody on side A flapped.
  EXPECT_EQ(hp.stats().suspects, 40u);
  EXPECT_EQ(hp.stats().deads, 40u);
  EXPECT_EQ(hp.stats().restores, 40u);
  EXPECT_EQ(hp.stats().flaps_damped, 0u);
  EXPECT_EQ(g.view().stats().suspects, 40u);
  EXPECT_EQ(g.view().stats().leaves, 40u);
  // Confirmed-dead members left the view and re-entered via join (100
  // initial joins + 40 rejoins), not the suspect->restore path.
  EXPECT_EQ(g.view().stats().joins, 140u);
  EXPECT_EQ(g.view().stats().restores, 0u);

  // One converged view: every member joined and echoing the final epoch.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const group::Member* mb = g.view().find(static_cast<MemberId>(i));
    ASSERT_NE(mb, nullptr);
    EXPECT_EQ(mb->state, MemberState::kJoined) << "member " << i;
    EXPECT_EQ(hp.state(static_cast<health::PeerId>(i)),
              health::PeerState::kAlive)
        << "member " << i;
  }
  EXPECT_TRUE(g.view().converged());

  // Exact fanout accounting: every (mcast, member) pair is either a
  // delivery or a skipped-while-left receipt — loss with receipt, never
  // silent. Side A missed nothing.
  EXPECT_GT(g.stats().skipped_left, 0u);
  EXPECT_EQ(g.stats().delivered + g.stats().skipped_left,
            static_cast<std::uint64_t>(kMcasts) * members.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    sum += got[i];
    if (i < 60) {
      EXPECT_EQ(got[i], kMcasts) << "member " << i;
    }
  }
  EXPECT_EQ(sum, g.stats().delivered);

  // Stability caught back up after the heal.
  ASSERT_TRUE(g.stability().has_value());
  EXPECT_EQ(*g.stability(), g.last_seq());
}

// --- merge_view: an adopted stale suspicion must not stick -----------------
//
// Partition healing's last leg: the other clique's snapshot wins on epoch
// and carries partition-era suspicions of members our health plane knows
// are alive. The merge must adopt the cautious verdict (view suspect, plane
// mark_suspect) and then let the normal machinery clear it — the suspects'
// very next beacons restore them. Without the plane re-judging, a
// view-suspect/plane-alive member would stay suspect forever.

TEST(GroupChaos, MergedCliqueSuspicionsAreReJudgedAndClear) {
  WorldConfig wc;
  wc.seed = 77;
  World w(wc);
  auto& hub = w.add_node("hub");
  std::vector<Node*> members;
  for (int i = 0; i < 10; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }

  McastOptions opt;
  opt.beacon_interval = vt_ms(50);
  McastGroup g(w, hub, members, opt);
  health::HealthPlane& hp = g.health();

  // Warm the links (beacons arm on first traffic) and converge.
  const std::vector<std::uint8_t> payload(32, 0x42);
  w.queue().at(vt_ms(1), [&] { g.mcast(payload); });
  for (int k = 0; k < 20; ++k) {
    w.queue().at(vt_ms(20) * (k + 1), [&g] { g.poll(); });
  }
  w.run_until(vt_ms(400));
  ASSERT_TRUE(g.view().converged());

  // The other clique's view: epoch far ahead, members 6..8 suspected
  // during the partition. Max-epoch-wins means its verdict is adopted.
  GroupView::ViewSnapshot other = g.view().snapshot();
  other.epoch = static_cast<std::uint16_t>(other.epoch + 10);
  for (auto& ms : other.members) {
    if (ms.id >= 6 && ms.id <= 8) ms.state = MemberState::kSuspect;
  }
  const std::uint16_t epoch_before = g.view().epoch();
  const GroupView::MergeReport r = g.merge_view(other);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.added, 0u);
  EXPECT_EQ(r.conflicts, 3u);
  ASSERT_EQ(r.reprobe, (std::vector<MemberId>{6, 7, 8}));
  EXPECT_GT(g.view().epoch(), epoch_before);
  EXPECT_EQ(g.view().stats().merges, 1u);

  // The adopted verdict is live in both the view and the plane.
  for (MemberId m = 6; m <= 8; ++m) {
    EXPECT_EQ(g.view().find(m)->state, MemberState::kSuspect);
    EXPECT_EQ(hp.state(m), health::PeerState::kSuspect);
  }
  EXPECT_EQ(hp.stats().suspects, 3u);

  // Their next beacons re-judge and clear the suspicion; the view
  // reconverges on the superseding epoch.
  bool done = false;
  for (int slice = 0; slice < 40 && !done; ++slice) {
    w.run_for(vt_ms(50));
    g.poll();
    done = g.view().converged();
  }
  EXPECT_TRUE(g.view().converged());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(g.view().find(static_cast<MemberId>(i))->state,
              MemberState::kJoined)
        << "member " << i;
  }
  EXPECT_EQ(hp.stats().restores, 3u);
  EXPECT_EQ(hp.stats().deads, 0u);
  EXPECT_EQ(g.view().stats().restores, 3u);
}

// --- leave is for good: a left member is never rejoined ---------------------
//
// leave() drops a member for good. The health plane must forget it too:
// otherwise a partition makes the plane suspect the left member, the heal
// lets its beacons through again, and the plane's restore hook — seeing
// kLeft, the mark of a confirmed-dead member — rejoins it.

TEST(GroupChaos, LeftMemberStaysLeftAcrossPartitionAndHeal) {
  WorldConfig wc;
  wc.seed = 3;
  World w(wc);
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  auto& m1 = w.add_node("m1");

  McastOptions opt;
  opt.beacon_interval = vt_ms(10);
  McastGroup g(w, hub, {&m0, &m1}, opt);

  const std::vector<std::uint8_t> payload(32, 0x11);
  g.mcast(payload);
  const auto run_polling = [&](VtDur span) {
    for (VtDur t = 0; t < span; t += vt_ms(10)) {
      w.run_for(vt_ms(10));
      g.poll();
    }
  };
  run_polling(vt_ms(200));
  ASSERT_EQ(g.view().find(1)->state, MemberState::kJoined);

  g.leave(1);
  EXPECT_FALSE(g.health().tracked(1));
  w.partition(hub, m1);
  run_polling(vt_ms(400));
  w.heal(hub, m1);
  run_polling(vt_ms(400));

  EXPECT_EQ(g.view().find(1)->state, MemberState::kLeft);
  EXPECT_EQ(g.view().find(0)->state, MemberState::kJoined);
  EXPECT_EQ(g.view().stats().joins, 2u);
  EXPECT_EQ(g.health().stats().restores, 0u);
}

// --- metrics: each group counts its own events, once ------------------------
//
// A group's counters are its own objects' stats, bound read-through by
// McastGroup::bind_stats: `group_leaves_total` reads the view's leave
// transitions, so leave() on a member the health plane already confirmed
// dead adds nothing, and a second group in the process never adds to the
// first one's counts.

double metric(const obs::MetricsRegistry& reg, const std::string& name) {
  for (const obs::MetricSample& s : reg.collect()) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "no metric `" << name << "` bound";
  return -1;
}

TEST(GroupChaos, LeaveOfAConfirmedDeadMemberCountsOneLeave) {
  WorldConfig wc;
  wc.seed = 5;
  World w(wc);
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  auto& m1 = w.add_node("m1");

  McastOptions opt;
  opt.beacon_interval = vt_ms(10);
  McastGroup g(w, hub, {&m0, &m1}, opt);
  g.mcast(std::vector<std::uint8_t>(32, 0x22));
  const auto run_polling = [&](VtDur span) {
    for (VtDur t = 0; t < span; t += vt_ms(10)) {
      w.run_for(vt_ms(10));
      g.poll();
    }
  };
  run_polling(vt_ms(200));
  ASSERT_EQ(g.view().find(1)->state, MemberState::kJoined);

  // Cut m1 off from the hub and from its only witness, so the indirect
  // probe round fails and the plane confirms it dead.
  w.partition_set("cut", {&m1});
  for (int i = 0; i < 100 && g.health().state(1) != health::PeerState::kDead;
       ++i) {
    run_polling(vt_ms(10));
  }
  ASSERT_EQ(g.health().state(1), health::PeerState::kDead);
  ASSERT_EQ(g.view().find(1)->state, MemberState::kLeft);

  g.leave(1);  // already left: no transition
  obs::MetricsRegistry reg;
  g.bind_stats(reg);
  EXPECT_EQ(metric(reg, "group_leaves_total"), 1.0);
  EXPECT_EQ(metric(reg, "group_joins_total"), 2.0);
  EXPECT_EQ(metric(reg, "health_deads_total"), 1.0);
  EXPECT_EQ(metric(reg, "group_members"), 1.0);
  EXPECT_EQ(metric(reg, "health_tracked_peers"), 1.0);
  EXPECT_EQ(metric(reg, "group_view_epoch"),
            static_cast<double>(g.view().epoch()));
}

TEST(GroupChaos, TwoGroupsEachCountOnlyTheirOwnMulticasts) {
  World w;
  auto& hub_a = w.add_node("hub-a");
  auto& hub_b = w.add_node("hub-b");
  auto& a0 = w.add_node("a0");
  auto& a1 = w.add_node("a1");
  auto& b0 = w.add_node("b0");
  McastOptions opt;
  opt.beacon_interval = 0;  // run-to-drain
  McastGroup ga(w, hub_a, {&a0, &a1}, opt);
  McastGroup gb(w, hub_b, {&b0}, opt);
  const std::vector<std::uint8_t> payload(16, 0x33);
  for (int i = 0; i < 3; ++i) ga.mcast(payload);
  for (int i = 0; i < 5; ++i) gb.mcast(payload);
  w.run();

  obs::MetricsRegistry ra;
  obs::MetricsRegistry rb;
  ga.bind_stats(ra);
  gb.bind_stats(rb);
  EXPECT_EQ(metric(ra, "group_mcasts_total"), 3.0);
  EXPECT_EQ(metric(rb, "group_mcasts_total"), 5.0);
  EXPECT_EQ(metric(ra, "group_fanout_sends_total"), 6.0);
  EXPECT_EQ(metric(rb, "group_fanout_sends_total"), 5.0);
  EXPECT_EQ(metric(ra, "group_delivers_total"), 6.0);
  EXPECT_EQ(metric(rb, "group_delivers_total"), 5.0);
  EXPECT_EQ(metric(ra, "group_fanout_amplification_x1000"), 2000.0);
  EXPECT_EQ(metric(rb, "group_fanout_amplification_x1000"), 1000.0);
  EXPECT_EQ(metric(ra, "group_stability_lag"),
            static_cast<double>(ga.stability_lag()));
  // The group-wide delivery histogram is its members' merged.
  EXPECT_EQ(ga.deliver_hist().count(), 6u);
  EXPECT_EQ(ga.deliver_hist().sum(),
            ga.member_hist(0).sum() + ga.member_hist(1).sum());
  EXPECT_EQ(gb.deliver_hist().count(), 5u);
}

TEST(GroupChaos, TwoGroupsBindIntoOneRegistryUnderTheirOwnPrefixes) {
  World w;
  auto& hub_a = w.add_node("hub-a");
  auto& hub_b = w.add_node("hub-b");
  auto& a0 = w.add_node("a0");
  auto& b0 = w.add_node("b0");
  McastOptions opt;
  opt.beacon_interval = 0;  // run-to-drain
  McastGroup ga(w, hub_a, {&a0}, opt);
  McastGroup gb(w, hub_b, {&b0}, opt);
  const std::vector<std::uint8_t> payload(16, 0x44);
  ga.mcast(payload);
  for (int i = 0; i < 4; ++i) gb.mcast(payload);
  w.run();

  obs::MetricsRegistry reg;
  ga.bind_stats(reg, "ga");
  gb.bind_stats(reg, "gb");
  EXPECT_EQ(metric(reg, "ga_mcasts_total"), 1.0);
  EXPECT_EQ(metric(reg, "gb_mcasts_total"), 4.0);
  EXPECT_EQ(metric(reg, "ga_members"), 1.0);
  EXPECT_EQ(metric(reg, "gb_health_tracked_peers"),
            metric(reg, "ga_health_tracked_peers"));
  // A name binds once: the same group again, or a second group under a
  // taken prefix, throws instead of reading the first binding.
  EXPECT_THROW(gb.bind_stats(reg, "ga"), std::invalid_argument);
  obs::MetricsRegistry plain;
  ga.bind_stats(plain);
  EXPECT_EQ(metric(plain, "group_mcasts_total"), 1.0);
  EXPECT_THROW(gb.bind_stats(plain), std::invalid_argument);
}

// --- exact shed accounting: ingest admission under a fanout blast ----------

TEST(GroupChaos, IngestShedsAreAccountedExactly) {
  WorldConfig wc;
  wc.seed = 11;
  World w(wc);
  auto& hub = w.add_node("hub");
  std::vector<Node*> members;
  for (int i = 0; i < 8; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }

  // Slow links: a long RTT keeps the send windows full, so per-engine
  // backlogs build and the shared governor climbs the ladder.
  OverloadGovernor gov;
  McastOptions opt;
  opt.beacon_interval = 0;  // run-to-drain
  opt.conn.a_governor = &gov;  // sender side only; member acks flow freely
  McastGroup g(w, hub, members, opt);

  std::vector<std::uint64_t> got(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    g.on_deliver(static_cast<MemberId>(i),
                 [&got, i](MemberId, std::uint32_t,
                           std::span<const std::uint8_t>) { ++got[i]; });
  }
  for (Node* m : members) {
    LinkParams lp = w.network().link(hub.id(), m->id());
    lp.propagation = vt_ms(5);
    w.network().set_link(hub.id(), m->id(), lp);
    LinkParams rp = w.network().link(m->id(), hub.id());
    rp.propagation = vt_ms(5);
    w.network().set_link(m->id(), hub.id(), rp);
  }

  // Blast: bursts far above the drain rate, spread over virtual time so
  // the governor's ticks see the pressure build.
  const std::uint32_t kRounds = 100;
  const std::uint32_t kPerRound = 20;
  const std::vector<std::uint8_t> payload(64, 0xab);
  for (std::uint32_t r = 0; r < kRounds; ++r) {
    w.queue().at(vt_ms(1) * (r + 1), [&g, &payload] {
      for (std::uint32_t k = 0; k < kPerRound; ++k) g.mcast(payload);
    });
  }
  w.run();

  const std::uint64_t mcasts = g.stats().mcasts;
  ASSERT_EQ(mcasts, static_cast<std::uint64_t>(kRounds) * kPerRound);

  // The governor must have engaged...
  const std::uint64_t shed_total = g.sender_drops(DropReason::kShedIngest);
  EXPECT_GT(shed_total, 0u) << "governor never engaged";
  EXPECT_GE(gov.max_level(), OverloadLevel::kElevated);

  // ...and the books must balance exactly, per member and in total:
  // everything offered was either delivered or refused with a receipt.
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::uint64_t shed =
        g.sender_endpoint(static_cast<MemberId>(i))
            ->engine()
            .stats()
            .drops[DropReason::kShedIngest];
    EXPECT_EQ(got[i] + shed, mcasts) << "member " << i;
  }
  EXPECT_EQ(g.stats().delivered + shed_total, mcasts * members.size());
}

// --- priority shedding: low-priority liveness goes before gossip/acks ------

TEST(GroupChaos, LowPriorityBeaconsShedFirstAndExactly) {
  WorldConfig wc;
  wc.seed = 5;
  World w(wc);
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  auto& m1 = w.add_node("m1");

  OverloadGovernor gov;
  McastOptions opt;
  opt.beacon_interval = vt_ms(10);
  opt.conn.a_governor = &gov;
  opt.priorities = {0, 1};  // member 0 low (kLiveness), member 1 normal
  McastGroup g(w, hub, {&m0, &m1}, opt);

  // One mcast primes both sides' beacon timers (nothing is armed until
  // traffic flows).
  const std::vector<std::uint8_t> payload(32, 0xcd);
  w.queue().at(vt_ms(1), [&] { g.mcast(payload); });

  // Hold the governor at Saturated for the whole horizon: a fresh pressure
  // report every tick interval outweighs the engines' idle (zero-backlog)
  // reports — per tick the governor takes the max of its signals.
  const std::size_t hold =
      (OverloadGovernor::kBacklogWatermark * 3) / 4;
  for (int k = 0; k < 400; ++k) {
    w.queue().at(vt_ms(1) * (k + 1), [&gov, hold, &w] {
      gov.report_backlog(hold);
      gov.tick(w.now());
    });
  }
  w.run_until(vt_ms(400));
  ASSERT_EQ(gov.level(), OverloadLevel::kSaturated);

  auto& e0 = g.sender_endpoint(0)->engine();
  auto& e1 = g.sender_endpoint(1)->engine();
  const auto* sg0 = g.sender_gossip(0);
  const auto* sg1 = g.sender_gossip(1);
  ASSERT_NE(sg0, nullptr);
  ASSERT_NE(sg1, nullptr);

  // Member 0's liveness was shed — every attempted beacon, exactly, has a
  // kShedHeartbeat receipt (attempts are counted before the governor gate).
  EXPECT_GT(sg0->stats().beacons_attempted, 10u);
  EXPECT_EQ(e0.stats().drops[DropReason::kShedHeartbeat],
            sg0->stats().beacons_attempted);
  ASSERT_NE(g.member_gossip(0), nullptr);
  EXPECT_EQ(g.member_gossip(0)->stats().beacons_received, 0u);

  // Member 1's gossip-class beacons survive Saturated (shed only at
  // Critical): none shed, and the member heard them.
  EXPECT_GT(sg1->stats().beacons_attempted, 10u);
  EXPECT_EQ(e1.stats().drops[DropReason::kShedHeartbeat], 0u);
  EXPECT_EQ(e1.stats().drops[DropReason::kShedGossip], 0u);
  ASSERT_NE(g.member_gossip(1), nullptr);
  EXPECT_GT(g.member_gossip(1)->stats().beacons_received, 10u);

  // Liveness shedding is invisible to the data path: the primer mcast
  // reached both members.
  EXPECT_EQ(g.stats().delivered, 2u);
}

}  // namespace
}  // namespace pa
