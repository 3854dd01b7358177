// Focused tests for the classic (baseline) engine: flow-control queueing,
// per-frame address demux, byte-order configuration, and layer add-ons.
#include <gtest/gtest.h>

#include "horus/world.h"
#include "test_layers.h"

namespace pa {
namespace {

ConnOptions classic_options() {
  ConnOptions opt;
  opt.use_pa = false;
  return opt;
}

TEST(Classic, WindowFullQueuesAndFlushes) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt = classic_options();
  opt.engine.stack.spec.find(LayerSpec::Type::kWindow)->window.size = 4;
  auto [src, dst] = w.connect(a, b, opt);
  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
  // Burst far beyond the window: the classic engine has no packer, so the
  // excess sits in its internal queue until acks free the window.
  for (int i = 0; i < 40; ++i) src->send(std::vector<std::uint8_t>{1});
  w.run();
  EXPECT_EQ(n, 40);
  auto* eng = dynamic_cast<ClassicEngine*>(&src->engine());
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->queue_len(), 0u);  // fully drained
  EXPECT_GT(src->engine().stats().backlogged, 0u);
  auto* win = dynamic_cast<WindowLayer*>(
      src->engine().stack().find(LayerKind::kWindow));
  EXPECT_GT(win->stats().window_stalls, 0u);
}

TEST(Classic, EveryFrameDemuxedByIdent) {
  World w;
  auto& srv = w.add_node("server");
  auto& c1 = w.add_node("c1");
  auto& c2 = w.add_node("c2");
  auto [s1, e1] = w.connect(srv, c1, classic_options());
  auto [s2, e2] = w.connect(srv, c2, classic_options());
  int n1 = 0, n2 = 0;
  s1->on_deliver([&](std::span<const std::uint8_t>) { ++n1; });
  s2->on_deliver([&](std::span<const std::uint8_t>) { ++n2; });
  for (int i = 0; i < 8; ++i) {
    w.queue().at(vt_ms(2) * i, [&, e1 = e1, e2 = e2] {
      e1->send(std::vector<std::uint8_t>{1});
      e2->send(std::vector<std::uint8_t>{2});
    });
  }
  w.run();
  EXPECT_EQ(n1, 8);
  EXPECT_EQ(n2, 8);
  // No cookies in classic mode: every single frame went through the
  // address-matching scan (the per-message cost cookies eliminate).
  EXPECT_EQ(srv.router().stats().routed_by_cookie, 0u);
  EXPECT_GE(srv.router().stats().routed_by_ident, 16u);  // all data frames
}

TEST(Classic, HeartbeatWorksUnderClassicEngine) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt = classic_options();
  opt.engine.stack.spec.push_top(beacon_layer(vt_ms(10)));
  auto [ea, eb] = w.connect(a, b, opt);
  eb->on_deliver([](std::span<const std::uint8_t>) {});
  ea->send(std::vector<std::uint8_t>{1});
  w.run_for(vt_ms(200));
  auto* hb_a = dynamic_cast<group::GroupGossipLayer*>(
      ea->engine().stack().find(LayerKind::kCustom));
  auto* hb_b = dynamic_cast<group::GroupGossipLayer*>(
      eb->engine().stack().find(LayerKind::kCustom));
  ASSERT_NE(hb_a, nullptr);
  ASSERT_NE(hb_b, nullptr);
  EXPECT_GT(hb_a->stats().beacons_attempted, 5u);
  EXPECT_GT(hb_a->stats().beacons_received, 5u);
  EXPECT_GT(hb_b->stats().beacons_received, 5u);
}

TEST(Classic, RetransmissionCarriesFullHeaders) {
  // Classic frames always carry the identification; a retransmission is a
  // verbatim resend and must still demux correctly.
  WorldConfig wc;
  wc.link.faults.drop_every = 3;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  w.network().set_link(a.id(), b.id(), wc.link);
  w.network().set_link(b.id(), a.id(), LinkParams{});
  auto [src, dst] = w.connect(a, b, classic_options());
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  for (std::uint32_t i = 0; i < 30; ++i) {
    w.queue().at(vt_ms(2) * i, [&, i, src = src] {
      std::uint8_t buf[4];
      store_be32(buf, i);
      src->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
  w.run();
  ASSERT_EQ(got.size(), 30u);
  for (std::uint32_t i = 0; i < 30; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(src->engine().stats().raw_resends, 0u);
  EXPECT_EQ(b.router().stats().drops[DropReason::kNoIdentMatch], 0u);
}

TEST(Classic, HeaderBytesMatchCompiledLayout) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, classic_options());
  (void)dst;
  auto* eng = dynamic_cast<ClassicEngine*>(&src->engine());
  ASSERT_NE(eng, nullptr);
  std::size_t sum = 0;
  // All wire regions (the trailing engine region would be excluded, but
  // the classic engine registers no engine fields).
  for (std::size_t r = 0; r < eng->layout().num_regions(); ++r) {
    sum += eng->layout().region_bytes(r);
  }
  EXPECT_EQ(eng->header_bytes(), sum);
  EXPECT_GT(eng->header_bytes(), 100u);  // idents dominate
}

}  // namespace
}  // namespace pa
