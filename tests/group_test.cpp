// Tests: group multicast (hub-sequenced total order), the heartbeat /
// failure-detection layer, and the custom-layer extension hook.
#include <gtest/gtest.h>

#include "horus/group.h"

namespace pa {
namespace {

std::vector<std::uint8_t> tag(std::uint8_t member, std::uint32_t n) {
  std::vector<std::uint8_t> v(5);
  v[0] = member;
  store_be32(v.data() + 1, n);
  return v;
}

TEST(Group, TotallyOrderedMulticast) {
  World w;
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  auto& m1 = w.add_node("m1");
  auto& m2 = w.add_node("m2");
  Group g(w, hub, {&m0, &m1, &m2}, ConnOptions{});

  // Every member records the (sender, seq) stream it sees.
  std::array<std::vector<std::pair<std::uint16_t, std::uint32_t>>, 3> seen;
  for (std::uint16_t i = 0; i < 3; ++i) {
    g.on_deliver(i, [&, i](std::uint16_t sender, std::uint32_t seq,
                           std::span<const std::uint8_t>) {
      seen[i].emplace_back(sender, seq);
    });
  }

  // Interleaved multicasts from all three members.
  for (std::uint32_t n = 0; n < 20; ++n) {
    for (std::uint16_t i = 0; i < 3; ++i) {
      w.queue().at(vt_us(100) * (n * 3 + i),
                   [&, i, n] { g.send(i, tag(static_cast<std::uint8_t>(i), n)); });
    }
  }
  w.run();

  // All members see all 60 messages, in the SAME total order, with
  // contiguous sequence numbers.
  ASSERT_EQ(seen[0].size(), 60u);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
  for (std::uint32_t k = 0; k < 60; ++k) {
    EXPECT_EQ(seen[0][k].second, k);
  }
}

TEST(Group, SurvivesLossyLinks) {
  WorldConfig wc;
  wc.link.loss_prob = 0.05;
  wc.seed = 5;
  World w(wc);
  auto& hub = w.add_node("hub");
  auto& m0 = w.add_node("m0");
  auto& m1 = w.add_node("m1");
  Group g(w, hub, {&m0, &m1}, ConnOptions{});

  std::array<int, 2> counts{};
  for (std::uint16_t i = 0; i < 2; ++i) {
    g.on_deliver(i, [&, i](std::uint16_t, std::uint32_t,
                           std::span<const std::uint8_t>) { ++counts[i]; });
  }
  for (std::uint32_t n = 0; n < 50; ++n) {
    w.queue().at(vt_us(400) * n, [&, n] { g.send(0, tag(0, n)); });
  }
  w.run();
  EXPECT_EQ(counts[0], 50);
  EXPECT_EQ(counts[1], 50);
}

TEST(Heartbeat, PeerConsideredAliveWhileHeartbeating) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  HeartbeatConfig hb;
  hb.interval = vt_ms(10);
  hb.suspect_after = vt_ms(50);
  opt.stack.spec.push_top(LayerSpec::heartbeat_layer(hb));
  auto [ea, eb] = w.connect(a, b, opt);

  // One message to open the connection, then silence except heartbeats.
  eb->on_deliver([](std::span<const std::uint8_t>) {});
  ea->send(std::vector<std::uint8_t>{1});
  w.run_for(vt_ms(300));

  auto* hb_a = dynamic_cast<HeartbeatLayer*>(
      ea->engine().stack().find(LayerKind::kCustom));
  auto* hb_b = dynamic_cast<HeartbeatLayer*>(
      eb->engine().stack().find(LayerKind::kCustom));
  ASSERT_NE(hb_a, nullptr);
  ASSERT_NE(hb_b, nullptr);
  EXPECT_GT(hb_a->stats().heartbeats_sent, 10u);
  EXPECT_GT(hb_b->stats().heartbeats_received, 10u);
  EXPECT_TRUE(hb_a->peer_alive(w.now()));
  EXPECT_TRUE(hb_b->peer_alive(w.now()));
}

TEST(Heartbeat, SilentPeerGetsSuspected) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  HeartbeatConfig hb;
  hb.interval = vt_ms(10);
  hb.suspect_after = vt_ms(50);
  opt.stack.spec.push_top(LayerSpec::heartbeat_layer(hb));
  auto [ea, eb] = w.connect(a, b, opt);
  eb->on_deliver([](std::span<const std::uint8_t>) {});
  ea->send(std::vector<std::uint8_t>{1});
  w.run_for(vt_ms(100));
  auto* hb_a = dynamic_cast<HeartbeatLayer*>(
      ea->engine().stack().find(LayerKind::kCustom));
  ASSERT_TRUE(hb_a->peer_alive(w.now()));

  // Cut the b->a direction: a stops hearing anything.
  LinkParams dead;
  dead.loss_prob = 1.0;
  w.network().set_link(b.id(), a.id(), dead);
  w.run_for(vt_ms(200));
  EXPECT_FALSE(hb_a->peer_alive(w.now()));
}

TEST(Heartbeat, DataTrafficStaysOnFastPath) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.stack.spec.push_top(LayerSpec::heartbeat_layer({}));
  auto [ea, eb] = w.connect(a, b, opt);
  int n = 0;
  eb->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
  for (int i = 0; i < 30; ++i) {
    w.queue().at(vt_ms(1) * i, [&, ea = ea] {
      ea->send(std::vector<std::uint8_t>{1, 2});
    });
  }
  w.run_for(vt_ms(40));
  EXPECT_EQ(n, 30);
  // The hb=0 bit is part of the predicted header: data stays fast.
  EXPECT_GT(eb->engine().stats().fast_delivers, 25u);
}

// A custom layer through the extension hook: counts every message it sees.
class TapLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kCustom; }
  std::string_view name() const override { return "tap"; }
  void init(LayerInit&) override {}
  SendVerdict pre_send(Message&, HeaderView&) const override {
    return SendVerdict::kOk;
  }
  DeliverVerdict pre_deliver(const Message&, const HeaderView&) const
      override {
    return DeliverVerdict::kDeliver;
  }
  void post_send(const Message&, const HeaderView&, LayerOps&) override {
    ++sent;
  }
  void post_deliver(Message&, const HeaderView&, DeliverVerdict v,
                    LayerOps&) override {
    if (v == DeliverVerdict::kDeliver) ++delivered;
  }
  void predict_send(HeaderView&) const override {}
  void predict_deliver(HeaderView&) const override {}
  std::uint64_t state_digest() const override {
    return digest_mix(digest_mix(0xcbf29ce484222325ull, sent), delivered);
  }

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
};

TEST(CustomLayer, ExtensionHookWorks) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.stack.spec.push_top(
      LayerSpec::custom([] { return std::make_unique<TapLayer>(); }));
  auto [ea, eb] = w.connect(a, b, opt);
  eb->on_deliver([](std::span<const std::uint8_t>) {});
  for (int i = 0; i < 12; ++i) ea->send(std::vector<std::uint8_t>{9});
  w.run();

  auto* tap_a = dynamic_cast<TapLayer*>(
      ea->engine().stack().find(LayerKind::kCustom));
  auto* tap_b = dynamic_cast<TapLayer*>(
      eb->engine().stack().find(LayerKind::kCustom));
  ASSERT_NE(tap_a, nullptr);
  ASSERT_NE(tap_b, nullptr);
  // Every application message passed the tap on both sides (packed
  // messages count once per protocol message at the tap).
  EXPECT_GT(tap_a->sent, 0u);
  EXPECT_GT(tap_b->delivered, 0u);
}

}  // namespace
}  // namespace pa
