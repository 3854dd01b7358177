// Tests: adaptive retransmission timeout (Jacobson estimator, Karn's rule).
#include <gtest/gtest.h>

#include "horus/world.h"

namespace pa {
namespace {

WindowConfig& window_cfg(ConnOptions& o) {
  return o.engine.stack.spec.find(LayerSpec::Type::kWindow)->window;
}

WindowLayer* win_of(Endpoint* e) {
  return dynamic_cast<WindowLayer*>(
      e->engine().stack().find(LayerKind::kWindow));
}

TEST(AdaptiveRto, ConvergesAndRecoversFasterThanFixed) {
  // One lost frame mid-stream; the adaptive timer should have converged to
  // ~RTT (a few hundred µs) and recover far sooner than the 20 ms fixed
  // timeout. Fast retransmit is disabled so only the RTO drives recovery.
  auto run = [](bool adaptive) {
    WorldConfig wc;
    wc.link.faults.drop_every = 40;
    World w(wc);
    auto& a = w.add_node("a");
    auto& b = w.add_node("b");
    w.network().set_link(a.id(), b.id(), wc.link);
    w.network().set_link(b.id(), a.id(), LinkParams{});
    ConnOptions opt;
    opt.engine.enable_packing = false;
    window_cfg(opt).fast_retransmit = false;
    window_cfg(opt).adaptive_rto = adaptive;
    window_cfg(opt).ack_every = 1;  // ack every frame: crisp RTT samples
    window_cfg(opt).ack_delay = vt_ms(1);  // tight floor
    auto [src, dst] = w.connect(a, b, opt);
    int got = 0;
    Vt done = 0;
    dst->on_deliver([&, dst = dst](std::span<const std::uint8_t>) {
      if (++got == 60) done = dst->now();
    });
    for (int i = 0; i < 60; ++i) {
      w.queue().at(vt_us(250) * i, [&, src = src] {
        src->send(std::vector<std::uint8_t>{1});
      });
    }
    w.run(5'000'000);
    EXPECT_EQ(got, 60) << "adaptive=" << adaptive;
    return done;
  };
  Vt t_adaptive = run(true);
  Vt t_fixed = run(false);
  // The fixed run waits out ~20 ms per loss; adaptive only a few ms.
  EXPECT_LT(t_adaptive + vt_ms(10), t_fixed);
}

TEST(AdaptiveRto, NoSpuriousRetransmitsOnCleanLink) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  window_cfg(opt).adaptive_rto = true;
  window_cfg(opt).ack_delay = vt_ms(1);
  opt.engine.enable_packing = false;
  auto [src, dst] = w.connect(a, b, opt);
  int got = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  // Clean link, paced stream: the adaptive timer must never fire a
  // retransmission even though it is much shorter than the fixed 20 ms.
  for (int i = 0; i < 150; ++i) {
    w.queue().at(vt_us(400) * i, [&, src = src] {
      src->send(std::vector<std::uint8_t>{1});
    });
  }
  w.run();
  EXPECT_EQ(got, 150);
  EXPECT_EQ(win_of(src)->stats().retransmits, 0u);
}

// Pin the Jacobson/Karels update arithmetic: first sample initializes
// srtt = s, rttvar = s/2; afterwards err = s - srtt, srtt += err/8,
// rttvar += (|err| - rttvar)/4 — integer division, truncation and all.
// A "refactor" that silently changes the gains or the rounding shows up
// here, not as a subtle soak-time regression.
TEST(AdaptiveRto, EstimatorArithmeticIsPinned) {
  VtDur srtt = 0, rttvar = 0;
  WindowLayer::rtt_update(vt_us(800), srtt, rttvar);
  EXPECT_EQ(srtt, vt_us(800));
  EXPECT_EQ(rttvar, vt_us(400));

  // err = 1600-800 = 800us; srtt += 100us; rttvar += (800-400)/4 = 100us.
  WindowLayer::rtt_update(vt_us(1600), srtt, rttvar);
  EXPECT_EQ(srtt, vt_us(900));
  EXPECT_EQ(rttvar, vt_us(500));

  // err = 700-900 = -200us; srtt -= 25us; rttvar += (200-500)/4 = -75us.
  WindowLayer::rtt_update(vt_us(700), srtt, rttvar);
  EXPECT_EQ(srtt, vt_us(875));
  EXPECT_EQ(rttvar, vt_us(425));

  // Constant samples converge: srtt to the sample, rttvar to 3 ns — the
  // truncation floor, since (0 - 3) / 4 == 0 in integer division toward
  // zero. The floor is part of the pinned contract.
  for (int i = 0; i < 200; ++i) WindowLayer::rtt_update(vt_us(875), srtt, rttvar);
  EXPECT_EQ(srtt, vt_us(875));
  EXPECT_EQ(rttvar, 3);
}

// Karn's rule end-to-end: on a link that drops deterministically, every
// retransmitted message must be excluded from RTT sampling — otherwise the
// (retransmit-send → original-ack or retransmit-ack) ambiguity poisons the
// estimator and srtt explodes past the true RTT.
TEST(AdaptiveRto, KarnsRuleKeepsEstimatorSane) {
  WorldConfig wc;
  wc.link.faults.drop_every = 7;  // aggressive, regular loss
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  w.network().set_link(a.id(), b.id(), wc.link);
  w.network().set_link(b.id(), a.id(), LinkParams{});
  ConnOptions opt;
  opt.engine.enable_packing = false;
  window_cfg(opt).ack_every = 1;
  window_cfg(opt).ack_delay = vt_ms(1);
  auto [src, dst] = w.connect(a, b, opt);
  int got = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  for (int i = 0; i < 120; ++i) {
    w.queue().at(vt_us(300) * i, [&, src = src] {
      src->send(std::vector<std::uint8_t>{1});
    });
  }
  w.run(10'000'000);
  EXPECT_EQ(got, 120);
  WindowLayer* win = win_of(src);
  EXPECT_GT(win->stats().retransmits, 0u);  // the link did bite
  // The true RTT here is a few hundred µs. A Karn violation folds whole
  // RTO waits (ms) into the estimate; with the rule honored srtt stays in
  // the same decade as the real RTT.
  EXPECT_GT(win->srtt(), 0);
  EXPECT_LT(win->srtt(), vt_ms(3));
}

// Duplicate-ack storm: the reverse path duplicates most standalone acks.
// Karn's discipline must hold end-to-end: a duplicated ack never advances
// the window again (so it can never yield a second RTT sample for the same
// message), and whatever spurious fast retransmits the storm provokes are
// marked retransmitted and excluded from sampling. The estimator stays in
// the true RTT's decade instead of collapsing toward zero or absorbing
// whole RTO waits.
TEST(AdaptiveRto, DupAckStormCannotPoisonTheEstimator) {
  WorldConfig wc;
  wc.seed = 909;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  LinkParams back;
  back.faults.dup_prob = 0.8;  // the ack path stutters hard
  w.network().set_link(b.id(), a.id(), back);
  ConnOptions opt;
  opt.engine.enable_packing = false;
  window_cfg(opt).ack_every = 1;
  window_cfg(opt).ack_delay = vt_ms(1);
  auto [src, dst] = w.connect(a, b, opt);
  int got = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  for (int i = 0; i < 120; ++i) {
    w.queue().at(vt_us(300) * i, [&, src = src] {
      src->send(std::vector<std::uint8_t>{1});
    });
  }
  w.run(10'000'000);
  // The storm actually happened, and the stream still delivered exactly
  // once per send (duplicate acks advance nothing; duplicate data from any
  // spurious retransmit is deduplicated by the window).
  EXPECT_GT(w.network().stats().frames_duplicated, 0u);
  EXPECT_EQ(got, 120);
  WindowLayer* win = win_of(src);
  EXPECT_GT(win->srtt(), 0);
  EXPECT_LT(win->srtt(), vt_ms(3));
}

// The jittered backoff stays inside its contract: deadline in
// [rto, rto << WindowLayer::kMaxRtoShift] and different jitter seeds give
// different schedules while identical seeds reproduce exactly (chaos
// determinism).
TEST(AdaptiveRto, BackoffJitterDeterministicPerSeed) {
  auto digest_after_blackhole = [](std::uint64_t seed) {
    WorldConfig wc;
    World w(wc);
    auto& a = w.add_node("a");
    auto& b = w.add_node("b");
    ConnOptions opt;
    opt.engine.enable_packing = false;
    window_cfg(opt).jitter_seed = seed;
    auto [src, dst] = w.connect(a, b, opt);
    dst->on_deliver([](std::span<const std::uint8_t>) {});
    // Blackhole a->b: every send retransmits with growing (jittered)
    // backoff.
    w.network().set_paused(a.id(), b.id(), true);
    src->send(std::vector<std::uint8_t>{1});
    w.run_for(vt_ms(400));
    return win_of(src)->state_digest();
  };
  EXPECT_EQ(digest_after_blackhole(7), digest_after_blackhole(7));
  EXPECT_NE(digest_after_blackhole(7), digest_after_blackhole(8));
}

TEST(AdaptiveRto, SurvivesLossBothWays) {
  WorldConfig wc;
  wc.link.faults.loss_prob = 0.07;
  wc.seed = 41;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  window_cfg(opt).adaptive_rto = true;
  window_cfg(opt).ack_delay = vt_ms(1);
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  for (std::uint32_t i = 0; i < 150; ++i) {
    w.queue().at(vt_us(300) * i, [&, i, src = src] {
      std::uint8_t buf[4];
      store_be32(buf, i);
      src->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
  w.run(10'000'000);
  ASSERT_EQ(got.size(), 150u);
  for (std::uint32_t i = 0; i < 150; ++i) EXPECT_EQ(got[i], i);
}

}  // namespace
}  // namespace pa
