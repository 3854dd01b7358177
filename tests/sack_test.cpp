// Tests: the selective-acknowledgement extension of the window layer —
// unit behavior of the bitmap, and end-to-end retransmission precision
// under multi-loss compared to cumulative-only operation.
#include <gtest/gtest.h>

#include "horus/world.h"

namespace pa {
namespace {

WindowLayer* tx_window(Endpoint* e) {
  return dynamic_cast<WindowLayer*>(e->engine().stack().find(
      LayerKind::kWindow));
}

// Pace n sends so each travels in its own frame.
void paced_sends(World& w, Endpoint* src, int n, VtDur gap) {
  for (int i = 0; i < n; ++i) {
    w.queue().at(gap * i, [&, i, src] {
      std::uint8_t buf[4];
      store_be32(buf, static_cast<std::uint32_t>(i));
      src->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
}

TEST(Sack, EndToEndWithLoss) {
  WorldConfig wc;
  wc.link.loss_prob = 0.12;
  wc.seed = 31;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt;
  opt.engine.stack.spec.find(LayerSpec::Type::kWindow)->window.selective_ack =
      true;
  auto [src, dst] = w.connect(a, b, opt);

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 200, vt_us(300));
  w.run();

  ASSERT_EQ(got.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(w.network().stats().frames_lost, 0u);
}

TEST(Sack, RecoversFasterUnderDeterministicMultiLoss) {
  // Drop every 7th data frame (deterministic, identical for both modes):
  // most recovery rounds then have several holes in the window at once,
  // which is the regime SACK exists for.
  auto run = [](bool sack) {
    WorldConfig wc;
    wc.link.drop_every = 7;
    World w(wc);
    auto& a = w.add_node("src");
    auto& b = w.add_node("dst");
    // Only the data direction drops; acks flow clean.
    w.network().set_link(a.id(), b.id(), wc.link);
    w.network().set_link(b.id(), a.id(), LinkParams{});
    ConnOptions opt;
    opt.engine.stack.spec.find(LayerSpec::Type::kWindow)
        ->window.selective_ack = sack;
    auto [src, dst] = w.connect(a, b, opt);
    int got = 0;
    Vt done_at = 0;
    dst->on_deliver([&, dst = dst](std::span<const std::uint8_t>) {
      if (++got == 300) done_at = dst->now();
    });
    paced_sends(w, src, 300, vt_us(150));
    w.run(5'000'000);
    EXPECT_EQ(got, 300) << "sack=" << sack;
    return std::pair<std::uint64_t, Vt>(tx_window(src)->stats().retransmits,
                                        done_at);
  };
  auto [rex_sack, t_sack] = run(true);
  auto [rex_cum, t_cum] = run(false);
  EXPECT_GT(rex_sack, 0u);
  // SACK must complete the stream at least as fast (within scheduling
  // noise), without a repair-traffic explosion.
  EXPECT_LE(t_sack, t_cum + vt_us(100));
  EXPECT_LE(rex_sack, rex_cum * 3 + 10);
}

TEST(Sack, HeaderCostIsFourGossipBytes) {
  Stack plain{StackSpec::paper()};
  plain.init();
  StackSpec spec = StackSpec::paper();
  spec.find(LayerSpec::Type::kWindow)->window.selective_ack = true;
  Stack sacked{spec};
  sacked.init();
  auto cl_plain = plain.registry().compile(LayoutMode::kCompact);
  auto cl_sack = sacked.registry().compile(LayoutMode::kCompact);
  EXPECT_EQ(cl_sack.class_bytes(FieldClass::kGossip),
            cl_plain.class_bytes(FieldClass::kGossip) + 4);
}

TEST(Sack, PredictionStillWorks) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.stack.spec.find(LayerSpec::Type::kWindow)->window.selective_ack =
      true;
  auto [src, dst] = w.connect(a, b, opt);
  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
  for (int i = 0; i < 25; ++i) {
    w.queue().at(vt_ms(1) * i, [&, src = src] {
      src->send(std::vector<std::uint8_t>{1});
    });
  }
  w.run();
  EXPECT_EQ(n, 25);
  EXPECT_GT(dst->engine().stats().fast_delivers, 20u);
}

}  // namespace
}  // namespace pa
