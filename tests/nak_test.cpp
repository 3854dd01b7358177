// Tests: the NAK-based (receiver-driven) reliability layer.
#include <gtest/gtest.h>

#include "horus/world.h"

namespace pa {
namespace {

ConnOptions nak_options() {
  ConnOptions opt;
  *opt.engine.stack.spec.find(LayerSpec::Type::kWindow) =
      LayerSpec::nak_layer();
  return opt;
}

NakLayer* nak_of(Endpoint* e) {
  return dynamic_cast<NakLayer*>(e->engine().stack().find(LayerKind::kCustom));
}

void paced_sends(World& w, Endpoint* src, int n, VtDur gap) {
  for (int i = 0; i < n; ++i) {
    w.queue().at(gap * i, [&, i, src] {
      std::uint8_t buf[4];
      store_be32(buf, static_cast<std::uint32_t>(i));
      src->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
}

TEST(Nak, CleanLinkProducesNoReverseTraffic) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, nak_options());
  int got = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++got; });
  paced_sends(w, src, 100, vt_us(200));
  w.run();
  EXPECT_EQ(got, 100);
  // No window layer: zero acks, zero naks — the receiver stayed silent.
  EXPECT_EQ(dst->engine().stats().protocol_emits, 0u);
  EXPECT_EQ(dst->engine().stats().frames_out, 0u);
  // And the stream rode the fast path.
  EXPECT_GT(dst->engine().stats().fast_delivers, 95u);
}

TEST(Nak, RepairsDeterministicLoss) {
  WorldConfig wc;
  wc.link.faults.drop_every = 9;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  w.network().set_link(a.id(), b.id(), wc.link);
  w.network().set_link(b.id(), a.id(), LinkParams{});  // naks flow clean
  auto [src, dst] = w.connect(a, b, nak_options());

  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 150, vt_us(300));
  w.run();

  ASSERT_EQ(got.size(), 150u);
  for (std::uint32_t i = 0; i < 150; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(nak_of(dst)->stats().naks_sent, 0u);
  EXPECT_GT(nak_of(src)->stats().repairs, 0u);
  EXPECT_EQ(nak_of(src)->stats().unrepairable, 0u);
}

TEST(Nak, SurvivesRandomLossBothWays) {
  WorldConfig wc;
  // Naks can be lost too: the re-nak timer heals.
  wc.link.faults.loss_prob = 0.08;
  wc.seed = 99;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  auto [src, dst] = w.connect(a, b, nak_options());
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 200, vt_us(300));
  w.run(10'000'000);
  ASSERT_EQ(got.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
}

TEST(Nak, LossBeyondHistoryIsUnrepairable) {
  // Drop one frame, then keep the link black long enough that the sender's
  // history ring wraps: the NAK for the lost message must be reported
  // unrepairable (the documented NAK trade-off).
  WorldConfig wc;
  World w(wc);
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt = nak_options();
  opt.engine.enable_packing = false;
  auto [src, dst] = w.connect(a, b, opt);
  int got = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++got; });

  // First message opens the connection.
  src->send(std::vector<std::uint8_t>{0});
  w.run();
  ASSERT_EQ(got, 1);

  // Cut the a->b link for exactly one message, and keep the reverse path
  // black so the receiver's NAKs cannot reach the sender yet.
  LinkParams dead;
  dead.faults.loss_prob = 1.0;
  w.network().set_link(a.id(), b.id(), dead);
  w.network().set_link(b.id(), a.id(), dead);
  src->send(std::vector<std::uint8_t>{1});
  w.run_for(vt_us(200));
  w.network().set_link(a.id(), b.id(), LinkParams{});

  // Push twice the history's worth of messages through while NAKs are
  // blocked: the sender's repair ring wraps past the lost message.
  for (std::size_t i = 0; i < 2 * NakLayer::kHistory; ++i) {
    src->send(std::vector<std::uint8_t>{2});
  }
  w.run_for(vt_ms(50));
  // Re-open the reverse path: the re-NAK timer asks again — too late.
  w.network().set_link(b.id(), a.id(), LinkParams{});
  w.run_for(vt_ms(100));

  EXPECT_GT(nak_of(src)->stats().unrepairable, 0u);
  // The receiver is stuck at the hole: delivered count froze at 1.
  EXPECT_EQ(got, 1);
}

TEST(Nak, FragmentedTransferOverNak) {
  World w;
  auto& a = w.add_node("src");
  auto& b = w.add_node("dst");
  ConnOptions opt = nak_options();
  opt.engine.stack.spec.find(LayerSpec::Type::kFrag)->frag.threshold = 128;
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint8_t> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
  });
  src->send(big);
  w.run();
  EXPECT_EQ(got, big);
}

}  // namespace
}  // namespace pa
