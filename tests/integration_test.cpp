// End-to-end integration tests: full PA and classic connections over the
// simulated network — ping-pong, streaming, loss recovery, cookie behavior,
// packing, fragmentation, and PA-vs-classic shape checks.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "horus/world.h"
#include "layers/frag_layer.h"

namespace pa {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return v;
}

TEST(Integration, PaOneMessage) {
  World w;
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  std::vector<std::uint8_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
  });
  src->send(bytes("hello, layered world"));
  w.run();

  EXPECT_EQ(got, bytes("hello, layered world"));
  EXPECT_EQ(dst->received(), 1u);
  // First message must carry the connection identification.
  EXPECT_EQ(src->engine().stats().conn_ident_sent, 1u);
}

TEST(Integration, PaPingPong) {
  World w;
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, ConnOptions{});

  int pongs = 0;
  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) {
    s->send(p);  // echo
  });
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) {
    if (++pongs < 50) c->send(pattern(8));
  });
  c->send(pattern(8));
  w.run();

  EXPECT_EQ(pongs, 50);
  // Steady-state round trips must ride the fast path on both sides.
  EXPECT_GT(c->engine().stats().fast_sends, 40u);
  EXPECT_GT(s->engine().stats().fast_delivers, 40u);
}

TEST(Integration, PaStreamInOrder) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    ASSERT_EQ(p.size(), 4u);
    got.push_back(load_be32(p.data()));
  });
  const int kN = 500;
  for (std::uint32_t i = 0; i < kN; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    src->send(std::span<const std::uint8_t>(buf, 4));
  }
  w.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);
  // A burst of 500 sends against deferred post-processing must have packed.
  EXPECT_GT(src->engine().stats().packed_batches, 0u);
}

TEST(Integration, PaLossRecovery) {
  WorldConfig wc;
  wc.link.faults.loss_prob = 0.1;
  wc.seed = 7;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  // Pace the sends so each message travels in its own frame (a burst would
  // be packed into a handful of frames and might dodge the loss injector).
  const int kN = 200;
  for (std::uint32_t i = 0; i < kN; ++i) {
    w.queue().at(vt_us(300) * i, [&, i, src = src] {
      std::uint8_t buf[4];
      store_be32(buf, i);
      src->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
  w.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (std::uint32_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(w.network().stats().frames_lost, 0u);
  auto* win = dynamic_cast<WindowLayer*>(
      src->engine().stack().find(LayerKind::kWindow));
  ASSERT_NE(win, nullptr);
  EXPECT_GT(win->stats().retransmits, 0u);
}

TEST(Integration, PaFirstMessageLossRecoversViaConnIdent) {
  // Drop exactly the first frame: the receiver cannot know the cookie, so
  // subsequent deliveries rely on the retransmission carrying the
  // connection identification (paper §2.2's noted weakness + remedy).
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  // Arrange for the first frame only to be lost.
  w.network().set_link(a.id(), b.id(), [] {
    LinkParams lp;
    lp.faults.loss_prob = 1.0;
    return lp;
  }());

  std::vector<std::uint8_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
  });
  src->send(bytes("must arrive"));
  // Restore the link after the first transmission window.
  w.run_for(vt_us(100));
  w.network().set_link(a.id(), b.id(), LinkParams{});
  w.run();

  EXPECT_EQ(got, bytes("must arrive"));
  EXPECT_GE(src->engine().stats().raw_resends, 1u);
  EXPECT_GE(src->engine().stats().conn_ident_sent, 2u);
}

TEST(Integration, UnknownCookieFramesAreDropped) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)src;
  (void)dst;

  // Forge a frame with a random cookie and no conn-ident.
  std::vector<std::uint8_t> frame(64, 0);
  encode_preamble(frame.data(),
                  Preamble{false, host_endian(), 0x123456789abcull});
  w.network().send(a.id(), b.id(), frame, 0);
  w.run();

  EXPECT_EQ(b.router().stats().drops[DropReason::kUnknownCookie], 1u);
  EXPECT_EQ(dst->received(), 0u);
}

TEST(Integration, PaFragmentation) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt;
  opt.engine.stack.spec.find(LayerSpec::Type::kFrag)->frag.threshold = 256;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::uint8_t> big = pattern(2000);
  std::vector<std::uint8_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
  });
  src->send(big);
  w.run();

  EXPECT_EQ(got, big);
  auto* frag = dynamic_cast<FragLayer*>(
      src->engine().stack().find(LayerKind::kFrag));
  ASSERT_NE(frag, nullptr);
  EXPECT_EQ(frag->stats().fragmented_msgs, 1u);
  EXPECT_EQ(frag->stats().fragments_sent, 8u);  // ceil(2000/256)
  auto* rfrag = dynamic_cast<FragLayer*>(
      dst->engine().stack().find(LayerKind::kFrag));
  EXPECT_EQ(rfrag->stats().reassembled, 1u);
}

TEST(Integration, ClassicOneMessageAndStream) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt;
  opt.use_pa = false;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  for (std::uint32_t i = 0; i < 100; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    src->send(std::span<const std::uint8_t>(buf, 4));
  }
  w.run();

  ASSERT_EQ(got.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
  // Classic engine never uses the fast path and never packs.
  EXPECT_EQ(src->engine().stats().fast_sends, 0u);
  EXPECT_EQ(src->engine().stats().packed_batches, 0u);
}

TEST(Integration, ClassicLossRecovery) {
  WorldConfig wc;
  wc.link.faults.loss_prob = 0.08;
  wc.seed = 11;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt;
  opt.use_pa = false;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  for (std::uint32_t i = 0; i < 150; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    src->send(std::span<const std::uint8_t>(buf, 4));
  }
  w.run();

  ASSERT_EQ(got.size(), 150u);
  for (std::uint32_t i = 0; i < 150; ++i) EXPECT_EQ(got[i], i);
}

TEST(Integration, PaRoundTripLatencyMatchesPaperShape) {
  // Single isolated round trip: the paper reports ~170 µs (25 send + 35
  // wire + 25 deliver, each way).
  World w;
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  auto [c, s] = w.connect(a, b, ConnOptions{});

  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  Vt t0 = 0, t1 = 0;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) { t1 = c->now(); });
  t0 = w.now();
  c->send(pattern(8));
  w.run();

  double rt_us = vt_to_us(t1 - t0);
  EXPECT_GT(rt_us, 140.0);
  EXPECT_LT(rt_us, 210.0);
}

TEST(Integration, ClassicRoundTripNearPaperBaseline) {
  // Original C Horus: ~1.5 ms round trip for the 4-layer stack.
  World w;
  auto& a = w.add_node("client");
  auto& b = w.add_node("server");
  ConnOptions opt;
  opt.use_pa = false;
  auto [c, s] = w.connect(a, b, opt);

  s->on_deliver([&, s = s](std::span<const std::uint8_t> p) { s->send(p); });
  Vt t1 = 0;
  c->on_deliver([&, c = c](std::span<const std::uint8_t>) { t1 = c->now(); });
  c->send(pattern(8));
  w.run();

  double rt_ms = vt_to_ms(t1);
  EXPECT_GT(rt_ms, 1.0);
  EXPECT_LT(rt_ms, 2.0);
}

TEST(Integration, HeterogeneousByteOrder) {
  // A little-endian sender talking to a (simulated) big-endian receiver:
  // the byte-order bit in the preamble makes field access agree.
  World w;
  auto& a = w.add_node("le");
  auto& b = w.add_node("be");
  ConnOptions opt;
  opt.a_endian = Endian::kLittle;
  opt.b_endian = Endian::kBig;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::uint8_t> got;
  int count = 0;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
    ++count;
  });
  for (int i = 0; i < 20; ++i) src->send(bytes("endian-proof"));
  w.run();

  EXPECT_EQ(count, 20);
  EXPECT_EQ(got, bytes("endian-proof"));
}

TEST(Integration, PreagreedCookieSkipsConnIdent) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt;
  opt.engine.cookie_preagreed = true;
  auto [src, dst] = w.connect(a, b, opt);

  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
  for (int i = 0; i < 5; ++i) src->send(pattern(8));
  w.run();

  EXPECT_EQ(n, 5);
  EXPECT_EQ(src->engine().stats().conn_ident_sent, 0u);
  EXPECT_GT(b.router().stats().routed_by_cookie, 0u);
}

TEST(Integration, DuplicationAndReorderTolerated) {
  WorldConfig wc;
  wc.link.faults.dup_prob = 0.1;
  wc.link.faults.delay_jitter = vt_us(80);
  wc.seed = 23;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, ConnOptions{});

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  for (std::uint32_t i = 0; i < 120; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    src->send(std::span<const std::uint8_t>(buf, 4));
  }
  w.run();

  ASSERT_EQ(got.size(), 120u);
  for (std::uint32_t i = 0; i < 120; ++i) EXPECT_EQ(got[i], i);
}

TEST(Integration, BidirectionalSimultaneousTraffic) {
  World w;
  auto& a = w.add_node("alpha");
  auto& b = w.add_node("beta");
  auto [ea, eb] = w.connect(a, b, ConnOptions{});

  int na = 0, nb = 0;
  ea->on_deliver([&](std::span<const std::uint8_t>) { ++na; });
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++nb; });
  for (int i = 0; i < 60; ++i) {
    ea->send(pattern(8, 1));
    eb->send(pattern(8, 2));
  }
  w.run();

  EXPECT_EQ(na, 60);
  EXPECT_EQ(nb, 60);
}

TEST(Integration, TwoConnectionsOneNodeRouteCorrectly) {
  World w;
  auto& srv = w.add_node("server");
  auto& c1 = w.add_node("client1");
  auto& c2 = w.add_node("client2");
  auto [s1, e1] = w.connect(srv, c1, ConnOptions{});
  auto [s2, e2] = w.connect(srv, c2, ConnOptions{});

  int n1 = 0, n2 = 0;
  s1->on_deliver([&](std::span<const std::uint8_t>) { ++n1; });
  s2->on_deliver([&](std::span<const std::uint8_t>) { ++n2; });
  for (int i = 0; i < 10; ++i) e1->send(pattern(8, 1));
  for (int i = 0; i < 25; ++i) e2->send(pattern(8, 2));
  w.run();

  EXPECT_EQ(n1, 10);
  EXPECT_EQ(n2, 25);
}

// ConnOptions::engine is copied whole into each side's PaConfig; World
// overwrites only what it owns (endianness, cookie seed, governor). The
// classic engine runs the same engine.stack.
TEST(World, ConnectPassesEngineConfigThrough) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  resil::OverloadGovernor gov_a;
  resil::OverloadGovernor gov_b;
  ConnOptions opt;
  opt.engine.stack.spec.find(LayerSpec::Type::kFrag)->frag.threshold = 512;
  opt.engine.costs.pa_send_path = vt_us(7);
  opt.engine.use_compiled_filters = false;
  opt.engine.enable_packing = false;
  opt.engine.variable_packing = true;
  opt.engine.use_message_pool = false;
  opt.engine.cookie_preagreed = true;
  opt.engine.always_send_conn_ident = true;
  opt.engine.disable_prediction = true;
  opt.a_endian = Endian::kBig;
  opt.b_endian = Endian::kLittle;
  opt.a_governor = &gov_a;
  opt.b_governor = &gov_b;
  auto [ea, eb] = w.connect(a, b, opt);

  for (Endpoint* ep : {ea, eb}) {
    ASSERT_NE(ep->pa(), nullptr);
    const PaConfig& c = ep->pa()->config();
    StackSpec spec = c.stack.spec;
    EXPECT_EQ(spec.find(LayerSpec::Type::kFrag)->frag.threshold, 512u);
    EXPECT_EQ(c.costs.pa_send_path, vt_us(7));
    EXPECT_FALSE(c.use_compiled_filters);
    EXPECT_FALSE(c.enable_packing);
    EXPECT_TRUE(c.variable_packing);
    EXPECT_FALSE(c.use_message_pool);
    EXPECT_TRUE(c.cookie_preagreed);
    EXPECT_TRUE(c.always_send_conn_ident);
    EXPECT_TRUE(c.disable_prediction);
  }
  const PaConfig& ca = ea->pa()->config();
  const PaConfig& cb = eb->pa()->config();
  EXPECT_NE(ca.cookie_seed, cb.cookie_seed);
  EXPECT_EQ(ca.self_endian, Endian::kBig);
  EXPECT_EQ(cb.self_endian, Endian::kLittle);
  EXPECT_EQ(ca.governor, &gov_a);
  EXPECT_EQ(cb.governor, &gov_b);

  // The classic engine is built from the same stack: 600 B crosses the
  // 512 B frag threshold, which the default 1024 B one would not.
  opt.use_pa = false;
  opt.a_governor = nullptr;
  opt.b_governor = nullptr;
  auto& c = w.add_node("c");
  auto& d = w.add_node("d");
  auto [ec, ed] = w.connect(c, d, opt);
  ASSERT_EQ(ec->pa(), nullptr);
  std::vector<std::uint8_t> got;
  ed->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
  });
  ec->send(pattern(600));
  w.run();
  EXPECT_EQ(got, pattern(600));
  auto* frag =
      dynamic_cast<FragLayer*>(ec->engine().stack().find(LayerKind::kFrag));
  ASSERT_NE(frag, nullptr);
  EXPECT_EQ(frag->stats().fragmented_msgs, 1u);
}

}  // namespace
}  // namespace pa
