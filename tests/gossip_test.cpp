// The gossip header class, exercised directly (paper §2.1).
//
// Gossip fields are the least-constrained of the four header classes: they
// are stamped from a prediction snapshot on fast sends (so they may be
// stale), they are NOT compared by the delivery fast path (so they may vary
// per message without costing a prediction miss), and an all-zero gossip
// region — as carried by every frame emitted below the gossip layer — must
// be harmless. The group subsystem (src/group/) leans on all three
// properties; these tests pin each one, plus the membership bookkeeping
// the gossip feeds.
#include <gtest/gtest.h>

#include <array>

#include "group/mcast.h"
#include "group/membership.h"
#include "horus/world.h"

namespace pa {
namespace {

using group::GroupView;
using group::McastGroup;
using group::McastOptions;
using group::MemberId;
using group::MemberState;

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

// --- membership bookkeeping ------------------------------------------------

TEST(Membership, TransitionsBumpEpochAndDigest) {
  GroupView v(7);
  EXPECT_EQ(v.epoch(), 0u);
  v.join(0);
  v.join(1);
  v.join(2);
  EXPECT_EQ(v.epoch(), 3u);
  EXPECT_EQ(v.joined_count(), 3u);
  const std::uint32_t d0 = v.digest();

  v.suspect(1);
  EXPECT_EQ(v.epoch(), 4u);
  EXPECT_NE(v.digest(), d0);
  EXPECT_EQ(v.joined_count(), 2u);

  v.restore(1);
  EXPECT_EQ(v.epoch(), 5u);
  // Same membership as before the suspicion: the digest must agree again
  // (it summarizes the set, while the epoch orders its history).
  EXPECT_EQ(v.digest(), d0);

  v.leave(2);
  EXPECT_EQ(v.joined_count(), 2u);
  // Idempotent / invalid transitions don't burn epochs.
  const std::uint16_t e = v.epoch();
  v.leave(2);
  v.restore(0);   // not suspect
  v.suspect(2);   // already left
  EXPECT_EQ(v.epoch(), e);
}

TEST(Membership, DigestIsCommutative) {
  GroupView a(1);
  GroupView b(1);
  a.join(3);
  a.join(9, /*priority=*/0);
  a.join(5);
  b.join(5);
  b.join(3);
  b.join(9, /*priority=*/0);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.epoch(), 0u);
}

TEST(Membership, StabilityIsMinAckOverJoined) {
  GroupView v(1);
  v.join(0);
  v.join(1);
  v.join(2);
  EXPECT_FALSE(v.stability().has_value());  // nobody acked yet
  v.note_ack(0, 10);
  v.note_ack(1, 7);
  EXPECT_FALSE(v.stability().has_value());  // member 2 still silent
  v.note_ack(2, 9);
  EXPECT_EQ(v.stability(), 7u);
  // Acks are monotonic: a reordered older ack can't regress stability.
  v.note_ack(1, 5);
  EXPECT_EQ(v.stability(), 7u);
  v.note_ack(1, 12);
  EXPECT_EQ(v.stability(), 9u);
  // A suspected member stops holding stability back...
  v.suspect(2);
  EXPECT_EQ(v.stability(), 10u);
  // ...and resumes counting when restored.
  v.restore(2);
  EXPECT_EQ(v.stability(), 9u);
}

TEST(Membership, StaleEchoIsHarmless) {
  GroupView v(1);
  v.join(0);
  v.note_echo(0, /*epoch=*/5, /*digest=*/0xabc);
  v.note_echo(0, /*epoch=*/3, /*digest=*/0xdef);  // reordered, older
  EXPECT_EQ(v.find(0)->epoch_echoed, 5u);
  EXPECT_EQ(v.find(0)->digest_echoed, 0xabcu);
}

// --- gossip on the wire ----------------------------------------------------

// Gossip varies on every data frame (the coordinator's advertised head
// moves with each mcast), yet both fast paths must keep hitting: the send
// prediction stamps the gossip snapshot instead of missing, and the
// delivery memcmp covers the protocol-specific region only.
TEST(Gossip, VaryingGossipKeepsBothFastPaths) {
  World w;
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  McastOptions o;
  o.beacon_interval = 0;  // beacons off: the world may run to drain
  McastGroup g(w, hub, {&m0}, o);

  std::uint64_t got = 0;
  g.on_deliver(0, [&](MemberId, std::uint32_t,
                      std::span<const std::uint8_t>) { ++got; });
  const auto payload = pattern(64);
  for (int i = 0; i < 100; ++i) {
    w.queue().at(vt_ms(2) * (i + 1), [&, payload] { g.mcast(payload); });
  }
  w.run();

  EXPECT_EQ(got, 100u);
  const auto& ss = g.sender_endpoint(0)->engine().stats();
  const auto& ms = g.member_endpoint(0)->engine().stats();
  // Paced sends after the first ride the send fast path even though every
  // frame's gossip (the advertised head seqno) differs from the last.
  EXPECT_GT(ss.fast_sends, 90u);
  // And varying gossip never shows up as a delivery prediction miss.
  EXPECT_GT(ms.fast_delivers, 90u);
  // The member really did see fresh gossip on (virtually) every frame.
  ASSERT_NE(g.member_gossip(0), nullptr);
  EXPECT_GT(g.member_gossip(0)->stats().gossip_frames_seen, 90u);
  EXPECT_GT(g.member_gossip(0)->stats().views_seen, 90u);
}

// Idle-link beacons: consumed before the application, shipped on the slow
// path (their beacon bit mismatches the prediction), and their piggybacked
// acks advance group stability without any data flowing.
TEST(Gossip, BeaconsCarryStabilityAndAreConsumed) {
  World w;
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  McastOptions o;
  o.beacon_interval = vt_ms(10);
  McastGroup g(w, hub, {&m0}, o);

  std::uint64_t got = 0;
  g.on_deliver(0, [&](MemberId, std::uint32_t,
                      std::span<const std::uint8_t>) { ++got; });
  const auto payload = pattern(32);
  for (int i = 0; i < 5; ++i) {
    w.queue().at(vt_ms(1) * (i + 1), [&, payload] { g.mcast(payload); });
  }
  w.run_for(vt_ms(400));  // bounded: beacons re-arm forever

  EXPECT_EQ(got, 5u);  // beacons never reached the application
  // The member's beacons reached the coordinator and carried its delivery
  // cursor: the group is fully stable with zero member data sends.
  ASSERT_NE(g.member_gossip(0), nullptr);
  ASSERT_NE(g.sender_gossip(0), nullptr);
  EXPECT_GT(g.member_gossip(0)->stats().beacons_attempted, 0u);
  EXPECT_GT(g.sender_gossip(0)->stats().beacons_received, 0u);
  EXPECT_GT(g.sender_gossip(0)->stats().acks_seen, 0u);
  EXPECT_EQ(g.stability(), g.last_seq());
  EXPECT_EQ(g.stability_lag(), 0u);
  // Convergence rode the same gossip: the member echoed the current view.
  EXPECT_TRUE(g.view().converged());
}

// A view transition mid-stream propagates to the surviving member purely
// via piggybacked gossip, and its echo comes back the same way.
TEST(Gossip, ViewChangesPropagateAndEchoBack) {
  World w;
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  auto& m1 = w.add_node("m1");
  McastOptions o;
  o.beacon_interval = vt_ms(10);
  McastGroup g(w, hub, {&m0, &m1}, o);
  std::array<std::uint32_t, 2> last_seq{};
  std::array<bool, 2> last_empty{};
  for (MemberId m = 0; m < 2; ++m) {
    g.on_deliver(m, [&, m](MemberId, std::uint32_t seq,
                           std::span<const std::uint8_t> p) {
      last_seq[m] = seq;
      last_empty[m] = p.empty();
    });
  }

  const auto payload = pattern(16);
  for (int i = 0; i < 5; ++i) {
    w.queue().at(vt_ms(2) * (i + 1), [&, payload] { g.mcast(payload); });
  }
  w.run_for(vt_ms(100));

  // An empty payload is a message too: every member gets it, empty, under
  // the next seqno.
  const std::uint32_t before = g.last_seq();
  EXPECT_EQ(g.mcast({}), before + 1);
  w.run_for(vt_ms(20));
  for (MemberId m = 0; m < 2; ++m) {
    EXPECT_EQ(last_seq[m], before + 1);
    EXPECT_TRUE(last_empty[m]);
  }
  const std::uint16_t epoch_before = g.view().epoch();

  g.leave(1);  // epoch bumps, digest changes
  EXPECT_GT(g.view().epoch(), epoch_before);
  for (int i = 0; i < 5; ++i) {
    w.queue().at(w.now() + vt_ms(2) * (i + 1), [&, payload] {
      g.mcast(payload);
    });
  }
  w.run_for(vt_ms(400));

  // Member 0 echoed the post-leave view; member 1 is out of the quorum, so
  // convergence is over joined members only.
  EXPECT_TRUE(g.view().converged());
  EXPECT_EQ(g.view().find(0)->epoch_echoed, g.view().epoch());
  // And stability is computed over the survivors.
  EXPECT_EQ(g.stability(), g.last_seq());
}

// Frames emitted by layers *below* the gossip layer (window acks, NAKs)
// carry an all-zero gossip region. That region must read as "no
// information": no ack regression, no view regression, no spurious gossip
// counted.
TEST(Gossip, ZeroedGossipRegionsAreHarmless) {
  World w;
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  McastOptions o;
  o.beacon_interval = vt_ms(10);
  // Extra below-gossip emissions: a standalone window ack for every
  // sequenced frame, beacons included.
  o.conn.engine.stack.spec.find(LayerSpec::Type::kWindow)->window.ack_every = 1;
  McastGroup g(w, hub, {&m0}, o);
  auto acks_sent = [&] {
    std::uint64_t n = 0;
    for (Endpoint* ep : {g.sender_endpoint(0), g.member_endpoint(0)}) {
      n += dynamic_cast<const WindowLayer&>(
               *ep->engine().stack().find(LayerKind::kWindow))
               .stats()
               .acks_sent;
    }
    return n;
  };

  const auto payload = pattern(16);
  for (int i = 0; i < 5; ++i) {
    w.queue().at(vt_ms(1) * (i + 1), [&, payload] { g.mcast(payload); });
  }
  w.run_for(vt_ms(120));
  ASSERT_EQ(g.stability(), g.last_seq());
  const std::uint16_t epoch = g.view().epoch();
  const std::uint64_t acks = g.sender_gossip(0)->stats().acks_seen;
  const std::uint64_t window_acks = acks_sent();

  // A long idle stretch full of beacons and window acks (the acks with
  // zeroed gossip): nothing may regress.
  w.run_for(vt_ms(300));
  EXPECT_GT(acks_sent(), window_acks + 20);
  EXPECT_EQ(g.stability(), g.last_seq());
  EXPECT_EQ(g.view().epoch(), epoch);
  EXPECT_TRUE(g.view().converged());
  // Beacon gossip kept flowing meanwhile (acks_seen may grow) but the
  // stable cursor cannot move backwards past what data established.
  EXPECT_GE(g.sender_gossip(0)->stats().acks_seen, acks);
}

// The router's group-cookie fanout: one frame on the wire reaches every
// colocated member engine as a WireFrame copy (refcount bumps). Exercised
// here at the frame level with simplex (windowless) member stacks.
TEST(Gossip, RouterGroupCookieFanout) {
  World w;
  auto& hub = w.add_node("hub");
  auto& shard = w.add_node("shard");
  // Build N windowless member connections on one shard node. The sender
  // side of connection 0 is the one whose frames we fan out.
  ConnOptions opt;
  // Simplex: no window, so members never ack.
  opt.engine.stack.spec = StackSpec{}
                       .add(LayerSpec::seq_layer())
                       .add(LayerSpec::bottom_layer({}));
  opt.engine.cookie_preagreed = true;
  auto [s0, r0] = w.connect(hub, shard, opt);
  auto [s1, r1] = w.connect(hub, shard, opt);
  (void)s1;
  std::uint64_t got0 = 0;
  std::uint64_t got1 = 0;
  r0->on_deliver([&](std::span<const std::uint8_t>) { ++got0; });
  r1->on_deliver([&](std::span<const std::uint8_t>) { ++got1; });

  // First teach both engines their own streams... then register the group
  // cookie so s0's frames go to BOTH member engines.
  ASSERT_NE(s0->pa(), nullptr);
  shard.router().register_group(s0->pa()->out_cookie(),
                                {&r0->engine(), &r1->engine()});
  const auto payload = pattern(48);
  for (int i = 0; i < 20; ++i) {
    w.queue().at(vt_ms(1) * (i + 1), [&, payload] { s0->send(payload); });
  }
  w.run();

  // r1's engine shares s0's layout but not its sequence history; with a
  // windowless in-order stack both engines accept the same stream.
  EXPECT_EQ(got0, 20u);
  EXPECT_EQ(got1, 20u);
  EXPECT_EQ(shard.router().stats().group_frames, 20u);
  EXPECT_EQ(shard.router().stats().group_deliveries, 40u);
}

}  // namespace
}  // namespace pa
