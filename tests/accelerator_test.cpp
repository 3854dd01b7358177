// Focused PaEngine behavior tests: disable counters, receive-queue bounds,
// prediction-miss paths, pool toggling, introspection invariants, and the
// self-containment of deferred post-processing records.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "horus/world.h"
#include "resil/governor.h"

namespace pa {
namespace {

std::vector<std::uint8_t> msg8() { return std::vector<std::uint8_t>(8, 7); }

TEST(Accelerator, DisableSendPredictionBacklogsSends) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });

  src->pa()->disable_send_prediction();
  for (int i = 0; i < 5; ++i) src->send(msg8());
  w.run();
  EXPECT_EQ(n, 0);  // everything held in the backlog
  EXPECT_EQ(src->pa()->backlog_len(), 5u);

  src->pa()->enable_send_prediction();  // flushes (and packs) the backlog
  w.run();
  EXPECT_EQ(n, 5);
  EXPECT_GT(src->engine().stats().packed_batches, 0u);
}

TEST(Accelerator, DisableDeliverPredictionForcesSlowPath) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });

  dst->pa()->disable_deliver_prediction();
  for (int i = 0; i < 10; ++i) {
    w.queue().at(vt_ms(1) * i, [&, src = src] { src->send(msg8()); });
  }
  w.run();
  EXPECT_EQ(n, 10);  // slow path still delivers correctly
  EXPECT_EQ(dst->engine().stats().fast_delivers, 0u);
  EXPECT_EQ(dst->engine().stats().slow_delivers, 10u);

  dst->pa()->enable_deliver_prediction();
  w.queue().at(w.now() + vt_ms(1), [&, src = src] { src->send(msg8()); });
  w.run();
  EXPECT_EQ(dst->engine().stats().fast_delivers, 1u);
}

TEST(Accelerator, RecvQueueOverflowDropsAndRecovers) {
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;  // receiver slower than sender
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.max_recv_queue = 2;      // tiny receive buffer
  opt.engine.enable_packing = false;  // every message its own frame
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint32_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.push_back(load_be32(p.data()));
  });

  // Burst far faster than the receiver's post-processing (130 µs/frame):
  // frames pile up behind deliver_busy_ and overflow the 2-slot queue.
  for (std::uint32_t i = 0; i < 12; ++i) {
    w.queue().at(vt_us(30) * i, [&, i, src = src] {
      std::uint8_t buf[4];
      store_be32(buf, i);
      src->send(std::span<const std::uint8_t>(buf, 4));
    });
  }
  w.run();

  EXPECT_GT(dst->engine().stats().drops[DropReason::kRecvQueueFull], 0u);
  // Retransmission must still complete the stream, in order.
  ASSERT_EQ(got.size(), 12u);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(got[i], i);
}

TEST(Accelerator, PoolDisabledStillWorks) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.use_message_pool = false;
  auto [src, dst] = w.connect(a, b, opt);
  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
  for (int i = 0; i < 20; ++i) src->send(msg8());
  w.run();
  EXPECT_EQ(n, 20);
  EXPECT_EQ(src->pa()->pool().stats().acquires, 0u);
}

TEST(Accelerator, IntrospectionConsistent) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  (void)dst;
  PaEngine* e = src->pa();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->conn_ident_bytes(), 77u);
  EXPECT_LT(e->fixed_header_bytes(), 32u);
  EXPECT_NE(e->out_cookie(), dst->pa()->out_cookie());
  EXPECT_EQ(e->out_cookie() & ~kCookieMask, 0u);
  EXPECT_TRUE(e->send_idle());
  EXPECT_EQ(e->disable_send_count(), 0);
  EXPECT_EQ(e->layout().mode(), LayoutMode::kCompact);
}

StackSpec no_frag_stack(WindowConfig win) {
  return StackSpec{}
      .add(LayerSpec::seq_layer())
      .add(LayerSpec::window_layer(win))
      .add(LayerSpec::bottom_layer({}));
}

TEST(Accelerator, LargePayloadWithoutFragLayer) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.stack.spec = no_frag_stack(WindowConfig{});
  auto [src, dst] = w.connect(a, b, opt);
  std::vector<std::uint8_t> big(9'000, 0x3c);  // within MTU 9180 minus hdrs
  std::vector<std::uint8_t> got;
  dst->on_deliver([&](std::span<const std::uint8_t> p) {
    got.assign(p.begin(), p.end());
  });
  src->send(big);
  w.run();
  EXPECT_EQ(got, big);
}

TEST(Accelerator, BeyondMtuWithoutFragIsLostNotCorrupted) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  WindowConfig win;
  win.rto = vt_ms(5);
  opt.engine.stack.spec = no_frag_stack(win);
  auto [src, dst] = w.connect(a, b, opt);
  int n = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) { ++n; });
  src->send(std::vector<std::uint8_t>(20'000, 1));  // > MTU: dropped by net
  w.run_for(vt_ms(30));
  EXPECT_EQ(n, 0);
  EXPECT_GT(w.network().stats().frames_oversize, 0u);
}

TEST(MultiCpu, ConnectionsDivideAcrossProcessors) {
  // Paper §6: stacks for different connections divided among processors,
  // no synchronization needed. Two connections on a 2-CPU node must make
  // progress concurrently: total throughput ~2x a 1-CPU node under the
  // same saturating load.
  auto run = [](std::size_t cpus) {
    WorldConfig wc;
    wc.gc_policy = GcPolicy::kEveryN;  // occasional GC: the server CPU is
    wc.gc_every_n = 256;               // the bottleneck, not the clients
    World w(wc);
    auto& server = w.add_node("server", cpus);
    std::uint64_t done = 0;
    std::vector<Endpoint*> clients;
    for (int i = 0; i < 2; ++i) {
      auto& cn = w.add_node("c" + std::to_string(i));
      ConnOptions opt;
      opt.engine.enable_packing = false;
      auto [cli, srv] = w.connect(cn, server, opt);
      srv->on_deliver(
          [&, srv = srv](std::span<const std::uint8_t> p) { srv->send(p); });
      cli->on_deliver([&, cli = cli](std::span<const std::uint8_t> p) {
        ++done;
        if (w.now() < vt_ms(100)) cli->send(p);
      });
      clients.push_back(cli);
    }
    std::vector<std::uint8_t> m(8, 1);
    for (auto* c : clients) c->send(m);
    w.run();
    return done;
  };
  std::uint64_t one = run(1);
  std::uint64_t two = run(2);
  EXPECT_GT(two, one * 1.6);
}

TEST(MultiCpu, RoundRobinAssignment) {
  World w;
  auto& n = w.add_node("multi", 3);
  EXPECT_EQ(n.n_cpus(), 3u);
  EXPECT_EQ(n.next_cpu(), 0u);
  EXPECT_EQ(n.next_cpu(), 1u);
  EXPECT_EQ(n.next_cpu(), 2u);
  EXPECT_EQ(n.next_cpu(), 0u);
}

// ---------------------------------------------------------------------------
// Deferred-record self-containment.
//
// An Env that *captures* deferred closures instead of running them:
// everything the engine defers sits in `deferred` until the test releases
// it. By then the caller's stack frame is long gone and the caller's
// payload buffer has been clobbered — so this fails (garbage payload bytes
// on the wire / delivered) if any deferred record keeps a pointer into
// caller state instead of owning a copy.
// ---------------------------------------------------------------------------
class RecordingEnv final : public Env {
 public:
  Vt now() const override { return t; }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    wire.push_back(std::move(f));
  }
  void deliver(std::span<const std::uint8_t> p) override {
    delivered.emplace_back(p.begin(), p.end());
  }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void set_timer(VtDur d, std::function<void()> fn) override {
    timers.emplace_back(t + d, std::move(fn));
  }
  void trace(std::string_view) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  /// Run every captured closure, including ones they defer in turn.
  void drain() {
    while (!deferred.empty()) {
      auto fn = std::move(deferred.front());
      deferred.pop_front();
      fn();
    }
  }

  Vt t = 0;
  std::deque<std::function<void()>> deferred;
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<std::vector<std::uint8_t>> delivered;
  std::vector<std::pair<Vt, std::function<void()>>> timers;
};

bool contains(const std::vector<std::uint8_t>& hay,
              const std::vector<std::uint8_t>& needle) {
  return std::search(hay.begin(), hay.end(), needle.begin(), needle.end()) !=
         hay.end();
}

TEST(DeferredRecords, SelfContainedAfterCallerFrameClobbered) {
  RecordingEnv env_a, env_b;
  PaConfig ca, cb;
  ca.cookie_seed = 11;
  cb.cookie_seed = 22;
  PaEngine a(ca, env_a);
  PaEngine b(cb, env_b);

  std::vector<std::uint8_t> original(64);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  {
    std::vector<std::uint8_t> payload = original;
    a.send(payload);
    // The caller's buffer dies here (scope) — clobber it first so a kept
    // pointer would visibly corrupt.
    std::fill(payload.begin(), payload.end(), 0xee);
  }

  // Post-send runs only now, from the stored deferred record.
  ASSERT_FALSE(env_a.deferred.empty());
  env_a.drain();
  ASSERT_EQ(env_a.wire.size(), 1u);
  EXPECT_TRUE(contains(env_a.wire[0], original));

  // Deliver to B, then run B's deferred post-deliver record.
  b.on_frame(env_a.wire[0], 0);
  env_b.drain();
  ASSERT_EQ(env_b.delivered.size(), 1u);
  EXPECT_EQ(env_b.delivered[0], original);

  // No ack ever arrives at A; fire A's stored timers (the window RTO). The
  // retransmission must come from the engine-owned stored copy — original
  // bytes — even though every caller frame involved is gone.
  env_a.wire.clear();
  auto timers = std::move(env_a.timers);
  env_a.timers.clear();
  env_a.t += vt_ms(1000);
  for (auto& [at, fn] : timers) fn();
  env_a.drain();
  ASSERT_FALSE(env_a.wire.empty());
  bool retransmit_intact = false;
  for (const auto& f : env_a.wire) {
    if (contains(f, original)) retransmit_intact = true;
  }
  EXPECT_TRUE(retransmit_intact);
}

// The governor clamps the send window relative to the window layer the
// stack actually built, not a default: a window of 64 held at Saturated
// clamps in-flight at 64 / 2.
TEST(Accelerator, GovernorClampsTheBuiltWindowSize) {
  resil::OverloadGovernor gov;
  Vt clock = vt_ms(1);
  for (int i = 0; i < 60; ++i) {
    // The engine never reports a send train, so this signal holds.
    gov.report_net_train(gov.config().net_train_watermark * 3 / 4);
    clock += gov.config().tick_interval;
    gov.tick(clock);
  }
  ASSERT_EQ(gov.level(), resil::OverloadLevel::kSaturated);

  RecordingEnv env;
  env.t = clock;  // the engine's own ticks land inside the interval
  WindowConfig win;
  win.size = 64;
  PaConfig cfg;
  cfg.stack.spec = StackSpec{}
                       .add(LayerSpec::frag_layer({/*threshold=*/8192}))
                       .add(LayerSpec::seq_layer())
                       .add(LayerSpec::window_layer(win))
                       .add(LayerSpec::bottom_layer({}));
  cfg.enable_packing = false;  // one message per frame
  cfg.governor = &gov;
  PaEngine e(cfg, env);

  for (int i = 0; i < 48; ++i) {
    e.send(std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
    env.drain();
  }
  ASSERT_EQ(gov.level(), resil::OverloadLevel::kSaturated);
  const auto* w =
      dynamic_cast<const WindowLayer*>(e.stack().find(LayerKind::kWindow));
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->in_flight(), 32u);
  EXPECT_EQ(env.wire.size(), 32u);
}

}  // namespace
}  // namespace pa
