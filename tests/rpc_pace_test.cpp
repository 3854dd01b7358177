// Tests: the RPC utility (at-most-once, timeouts) and the token-bucket
// pacing layer (disable-counter traffic shaping).
#include <gtest/gtest.h>

#include "horus/rpc.h"

namespace pa {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

struct RpcRig {
  World w;
  Node& cn = w.add_node("client");
  Node& sn = w.add_node("server");
  Endpoint* ce;
  Endpoint* se;

  explicit RpcRig(ConnOptions opt = {}) {
    auto [c, s] = w.connect(cn, sn, opt);
    ce = c;
    se = s;
  }
};

TEST(Rpc, CallAndReply) {
  RpcRig rig;
  RpcServer server(*rig.se, [](std::span<const std::uint8_t> req) {
    std::vector<std::uint8_t> out(req.begin(), req.end());
    std::reverse(out.begin(), out.end());
    return out;
  });
  RpcClient client(*rig.ce, rig.w);

  std::vector<std::uint8_t> got;
  client.call(bytes("abc"), [&](std::span<const std::uint8_t> r) {
    got.assign(r.begin(), r.end());
  });
  rig.w.run();
  EXPECT_EQ(got, bytes("cba"));
  EXPECT_EQ(client.replies(), 1u);
  EXPECT_EQ(server.executed(), 1u);
}

TEST(Rpc, ManyConcurrentCallsStayFastPath) {
  RpcRig rig;
  RpcServer server(*rig.se, [](std::span<const std::uint8_t> req) {
    return std::vector<std::uint8_t>(req.begin(), req.end());
  });
  RpcClient client(*rig.ce, rig.w);
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    rig.w.queue().at(vt_us(300) * i, [&, i] {
      std::uint8_t b[4];
      store_be32(b, static_cast<std::uint32_t>(i));
      client.call(std::span<const std::uint8_t>(b, 4),
                  [&, i](std::span<const std::uint8_t> r) {
                    EXPECT_EQ(load_be32(r.data()),
                              static_cast<std::uint32_t>(i));
                    ++done;
                  });
    });
  }
  rig.w.run();
  EXPECT_EQ(done, 40);
  // The RPC frames are ordinary payload: the fast path carries them.
  EXPECT_GT(rig.ce->engine().stats().fast_sends, 35u);
  EXPECT_GT(rig.se->engine().stats().fast_delivers, 35u);
}

TEST(Rpc, TimeoutFiresWhenLinkDead) {
  RpcRig rig;
  // Kill the forward link before any traffic (cookie never learned, and
  // window retransmissions also die).
  LinkParams dead;
  dead.loss_prob = 1.0;
  rig.w.network().set_link(rig.cn.id(), rig.sn.id(), dead);
  RpcServer server(*rig.se, [](std::span<const std::uint8_t> r) {
    return std::vector<std::uint8_t>(r.begin(), r.end());
  });
  RpcClient client(*rig.ce, rig.w, vt_ms(10));
  bool replied = false, timed_out = false;
  client.call(bytes("x"), [&](std::span<const std::uint8_t>) {
    replied = true;
  }, [&] { timed_out = true; });
  rig.w.run_for(vt_ms(100));
  EXPECT_FALSE(replied);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(client.timeouts(), 1u);
}

TEST(Rpc, AtMostOnceUnderApplicationRetry) {
  RpcRig rig;
  int executions = 0;
  RpcServer server(*rig.se, [&](std::span<const std::uint8_t> r) {
    ++executions;
    return std::vector<std::uint8_t>(r.begin(), r.end());
  });
  RpcClient client(*rig.ce, rig.w);

  // Simulate an application-level duplicate: replay the exact wire-level
  // request frame (kind=1, id=0) a second time.
  int replies = 0;
  client.call(bytes("pay-once"), [&](std::span<const std::uint8_t>) {
    ++replies;
  });
  rig.w.run();
  std::vector<std::uint8_t> dup(5 + 8);
  dup[0] = 1;
  store_be32(dup.data() + 1, 0);  // same call id
  std::copy_n(reinterpret_cast<const std::uint8_t*>("pay-once"), 8,
              dup.begin() + 5);
  rig.ce->send(dup);
  rig.w.run();

  EXPECT_EQ(executions, 1);  // handler ran once
  EXPECT_EQ(server.duplicates_served(), 1u);
  EXPECT_EQ(replies, 1);  // client already consumed id 0
}

TEST(Rpc, RetryingCallReusesIdAndDedupes) {
  // Lossy link + app timeout below the transport RTO: retries race their
  // originals; the reply cache must prevent re-execution.
  WorldConfig wc;
  wc.link.loss_prob = 0.15;
  wc.seed = 3;
  World w(wc);
  auto& cn = w.add_node("client");
  auto& sn = w.add_node("server");
  auto [ce, se] = w.connect(cn, sn, ConnOptions{});

  int executions = 0;
  RpcServer server(*se, [&](std::span<const std::uint8_t> r) {
    ++executions;
    return std::vector<std::uint8_t>(r.begin(), r.end());
  });
  RpcClient client(*ce, w, vt_ms(8));
  int confirmed = 0;
  // Sequential closed loop (a retry storm from many concurrent retrying
  // calls would just fill the local backlog and exhaust every budget).
  std::function<void(int)> next = [&](int i) {
    if (i >= 20) return;
    std::uint8_t b[4];
    store_be32(b, static_cast<std::uint32_t>(i));
    client.call_retrying(std::span<const std::uint8_t>(b, 4),
                         [&, i](std::span<const std::uint8_t>) {
                           ++confirmed;
                           next(i + 1);
                         },
                         /*max_retries=*/50);
  };
  next(0);
  w.run(10'000'000);
  EXPECT_EQ(confirmed, 20);
  EXPECT_EQ(executions, 20);  // at-most-once despite retries
  // The lossy link must actually have produced some duplicate requests.
  EXPECT_GT(client.retries(), 0u);
}

TEST(Rpc, RetryingCallFailsAfterBudget) {
  World w;
  auto& cn = w.add_node("client");
  auto& sn = w.add_node("server");
  LinkParams dead;
  dead.loss_prob = 1.0;
  w.network().set_default_link(dead);
  auto [ce, se] = w.connect(cn, sn, ConnOptions{});
  (void)se;
  RpcClient client(*ce, w, vt_ms(5));
  bool failed = false;
  client.call_retrying(bytes("x"), [](std::span<const std::uint8_t>) {},
                       /*max_retries=*/3, [&] { failed = true; });
  w.run_for(vt_ms(200));
  EXPECT_TRUE(failed);
  EXPECT_EQ(client.retries(), 3u);
}

TEST(Pace, CapsThroughputAtConfiguredRate) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.stack.spec.push_top(LayerSpec::custom([] {
    PaceConfig pc;
    pc.msgs_per_sec = 2000;
    pc.burst = 4;
    return std::make_unique<PaceLayer>(pc);
  }));
  auto [src, dst] = w.connect(a, b, opt);
  std::uint64_t got = 0;
  Vt last = 0;
  dst->on_deliver([&](std::span<const std::uint8_t>) {
    ++got;
    last = w.now();
  });
  // Offer 10x the configured rate.
  for (int i = 0; i < 400; ++i) {
    w.queue().at(vt_us(50) * i, [&, src = src] {
      src->send(std::vector<std::uint8_t>{9});
    });
  }
  w.run();
  EXPECT_EQ(got, 400u);  // nothing lost, only delayed (backlogged + packed)
  double rate = 400.0 / vt_to_s(last);
  // Pacing is per *protocol message*; the PA packs the backlog, so the
  // app-message rate can exceed 2000/s — but protocol frames must not.
  auto* pace = dynamic_cast<PaceLayer*>(
      src->engine().stack().find(LayerKind::kCustom));
  ASSERT_NE(pace, nullptr);
  EXPECT_GT(pace->stats().throttles, 0u);
  double frame_rate = static_cast<double>(pace->stats().sent) /
                      vt_to_s(last);
  EXPECT_LT(frame_rate, 2600);  // 2000/s + burst slack
  (void)rate;
}

TEST(Pace, IdleBucketRefillsToBurst) {
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.engine.stack.spec.push_top(LayerSpec::custom([] {
    PaceConfig pc;
    pc.msgs_per_sec = 1000;
    pc.burst = 5;
    return std::make_unique<PaceLayer>(pc);
  }));
  auto [src, dst] = w.connect(a, b, opt);
  dst->on_deliver([](std::span<const std::uint8_t>) {});
  for (int i = 0; i < 5; ++i) src->send(std::vector<std::uint8_t>{1});
  w.run();
  auto* pace = dynamic_cast<PaceLayer*>(
      src->engine().stack().find(LayerKind::kCustom));
  EXPECT_EQ(pace->tokens(), 5u);  // refilled after the burst drained
}

}  // namespace
}  // namespace pa
