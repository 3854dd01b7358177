// Sequence-number wraparound: every sequence-carrying protocol must work
// identically when its 32-bit counters cross 0xFFFFFFFF -> 0.
#include <gtest/gtest.h>

#include "horus/world.h"

namespace pa {
namespace {

constexpr std::uint32_t kNearWrap = 0xFFFFFFF0u;

// The paper's stack with the seq layer and the window starting just below
// the wrap.
ConnOptions near_wrap() {
  ConnOptions opt;
  StackSpec& s = opt.engine.stack.spec;
  s.find(LayerSpec::Type::kSeq)->initial_seq = kNearWrap;
  s.find(LayerSpec::Type::kWindow)->window.initial_seq = kNearWrap;
  return opt;
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

void expect_in_order(const std::vector<std::uint32_t>& got, int n) {
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], static_cast<std::uint32_t>(i));
  }
}

TEST(Wraparound, WindowCleanStream) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt = near_wrap();
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 100, vt_us(300));
  w.run();
  expect_in_order(got, 100);
  auto* win = dynamic_cast<WindowLayer*>(
      src->engine().stack().find(LayerKind::kWindow));
  EXPECT_TRUE(win->next_seq() < kNearWrap);  // wrapped
}

TEST(Wraparound, WindowWithLossAndReorder) {
  WorldConfig wc;
  wc.link.faults.loss_prob = 0.08;
  wc.link.faults.delay_jitter = vt_us(100);
  wc.seed = 17;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt = near_wrap();
  // Sack bitmap across the wrap too.
  opt.engine.stack.spec.find(LayerSpec::Type::kWindow)->window.selective_ack =
      true;
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 120, vt_us(300));
  w.run();
  expect_in_order(got, 120);
}

TEST(Wraparound, ClassicEngine) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt = near_wrap();
  opt.use_pa = false;
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 64, vt_ms(1));
  w.run();
  expect_in_order(got, 64);
}

TEST(Wraparound, SeqLayerStashAcrossWrap) {
  // Drive the seq layer directly across the boundary with out-of-order
  // arrivals whose raw uint32 ordering inverts at the wrap.
  SeqLayer seq(0xFFFFFFFEu);
  LayoutRegistry reg;
  FilterProgram sp, rp;
  LayerInit ctx{reg, sp, rp, 0};
  seq.init(ctx);
  auto cl = reg.compile(LayoutMode::kCompact);

  struct NullOps : LayerOps {
    std::vector<Message> released;
    Vt now() const override { return 0; }
    void emit_down(Message, std::function<void(HeaderView&)>,
                   bool) override {}
    void resend_raw(const Message&,
                    std::function<void(HeaderView&)>) override {}
    void release_up(Message m) override { released.push_back(std::move(m)); }
    void set_timer(VtDur, std::function<void(LayerOps&)>) override {}
    void disable_send() override {}
    void enable_send() override {}
    void disable_deliver() override {}
    void enable_deliver() override {}
  } ops;

  auto deliver = [&](std::uint32_t s) {
    Message m;
    std::size_t bytes = cl.class_bytes(FieldClass::kProtoSpec);
    std::uint8_t* h = m.push(bytes);
    std::memset(h, 0, bytes);
    HeaderView v(&cl, host_endian());
    v.set_region(1, h);
    v.set(FieldHandle{0}, s);
    DeliverVerdict verdict = seq.pre_deliver(m, v);
    seq.post_deliver(m, v, verdict, ops);
    return verdict;
  };

  // Arrivals: 0, 0xFFFFFFFF, 0xFFFFFFFE  (reverse order across the wrap).
  EXPECT_EQ(deliver(0x0), DeliverVerdict::kConsume);
  EXPECT_EQ(deliver(0xFFFFFFFFu), DeliverVerdict::kConsume);
  EXPECT_EQ(deliver(0xFFFFFFFEu), DeliverVerdict::kDeliver);
  // Both stashed messages released, and the layer now expects 1.
  EXPECT_EQ(ops.released.size(), 2u);
  EXPECT_EQ(seq.expected_in(), 1u);
  // Late duplicate from before the wrap is recognized as stale.
  EXPECT_EQ(deliver(0xFFFFFFFEu), DeliverVerdict::kDrop);
}

TEST(Wraparound, NakProtocolAcrossWrap) {
  WorldConfig wc;
  wc.link.faults.drop_every = 11;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  w.network().set_link(a.id(), b.id(), wc.link);
  w.network().set_link(b.id(), a.id(), LinkParams{});
  // The seq layer wraps; nak uses its own seq.
  ConnOptions opt = near_wrap();
  *opt.engine.stack.spec.find(LayerSpec::Type::kWindow) =
      LayerSpec::nak_layer();
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });
  paced_sends(w, src, 80, vt_us(400));
  w.run();
  expect_in_order(got, 80);
}

}  // namespace
}  // namespace pa
