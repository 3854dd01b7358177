// Tests for the overload-resilience subsystem (src/resil/): the overload
// governor's ladder/hysteresis/policies, the FaultSocket's deterministic
// fault schedule, and the real-path chaos scenarios — the PR-1 fault
// vocabulary (corruption, truncation, burst loss, pause, peer restart)
// replayed against real loopback UDP sockets through RealLoop's injector
// seam. Socket tests skip (not fail) when the sandbox forbids sockets.
#include <gtest/gtest.h>

#include <tuple>

#include "net/real_endpoint.h"
#include "resil/fault_socket.h"
#include "resil/governor.h"

namespace pa {
namespace {

using resil::FaultConfig;
using resil::FaultSocket;
using resil::GovernorConfig;
using resil::OverloadGovernor;
using resil::OverloadLevel;

// ---------------------------------------------------------------------------
// Governor: ladder, hysteresis, policies.
// ---------------------------------------------------------------------------

// Drive the governor with a constant backlog signal until its EWMA settles.
void settle(OverloadGovernor& g, std::size_t backlog, Vt& clock, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    g.report_backlog(backlog);
    clock += g.config().tick_interval;
    g.tick(clock);
  }
}

TEST(Governor, ClimbsTheLadderAsPressureRises) {
  OverloadGovernor g;
  Vt clock = vt_ms(1);
  EXPECT_EQ(g.level(), OverloadLevel::kNormal);

  settle(g, g.config().backlog_watermark / 3, clock, 50);  // pressure ~0.33
  EXPECT_EQ(g.level(), OverloadLevel::kElevated);

  settle(g, (g.config().backlog_watermark * 3) / 4, clock, 50);  // ~0.75
  EXPECT_EQ(g.level(), OverloadLevel::kSaturated);

  settle(g, g.config().backlog_watermark * 2, clock, 50);  // clamped to 1.0
  EXPECT_EQ(g.level(), OverloadLevel::kCritical);
  EXPECT_EQ(g.max_level(), OverloadLevel::kCritical);
}

TEST(Governor, HysteresisHoldsLevelNearThreshold) {
  OverloadGovernor g;
  Vt clock = vt_ms(1);
  // Enter Saturated, then hover just below its entry threshold: the level
  // must hold (no flapping) until pressure clears the down margin.
  settle(g, (g.config().backlog_watermark * 3) / 4, clock, 60);
  ASSERT_EQ(g.level(), OverloadLevel::kSaturated);

  const double entry = g.config().up_saturated;
  const std::size_t hover = static_cast<std::size_t>(
      (entry - 0.03) * static_cast<double>(g.config().backlog_watermark));
  settle(g, hover, clock, 80);
  EXPECT_EQ(g.level(), OverloadLevel::kSaturated) << g.pressure();

  // Drop well below the margin: the level falls.
  settle(g, 0, clock, 120);
  EXPECT_EQ(g.level(), OverloadLevel::kNormal);
  // max_level() remembers the excursion after recovery.
  EXPECT_EQ(g.max_level(), OverloadLevel::kSaturated);
}

TEST(Governor, RisingEdgeIsImmediateOnceSmoothed) {
  // A single huge signal does not jump the level (EWMA), but it must not
  // need a falling edge either: monotone climb, no intermediate drop.
  OverloadGovernor g;
  Vt clock = vt_ms(1);
  OverloadLevel prev = OverloadLevel::kNormal;
  for (int i = 0; i < 60; ++i) {
    g.report_backlog(g.config().backlog_watermark * 4);
    clock += g.config().tick_interval;
    g.tick(clock);
    EXPECT_GE(g.level(), prev);
    prev = g.level();
  }
  EXPECT_EQ(g.level(), OverloadLevel::kCritical);
}

TEST(Governor, TickIsRateLimited) {
  OverloadGovernor g;
  g.report_backlog(g.config().backlog_watermark);
  Vt clock = vt_ms(1);
  g.tick(clock);
  const std::uint64_t after_first = g.stats().ticks;
  // Sub-interval ticks are no-ops.
  for (int i = 0; i < 10; ++i) g.tick(clock + i);
  EXPECT_EQ(g.stats().ticks, after_first);
  g.tick(clock + g.config().tick_interval);
  EXPECT_EQ(g.stats().ticks, after_first + 1);
}

TEST(Governor, PoliciesFollowTheLadder) {
  OverloadGovernor g;
  Vt clock = vt_ms(1);

  // Normal: everything admitted, nothing shed, no clamps.
  EXPECT_TRUE(g.admit_ingest(1'000'000));
  EXPECT_FALSE(g.shed_heartbeat());
  EXPECT_FALSE(g.shed_gossip());
  EXPECT_FALSE(g.reject_new_idents());
  EXPECT_EQ(g.pack_batch_limit(128), 128u);
  EXPECT_EQ(g.window_clamp(16), 16u);

  settle(g, g.config().backlog_watermark / 3, clock, 50);
  ASSERT_EQ(g.level(), OverloadLevel::kElevated);
  EXPECT_TRUE(g.admit_ingest(g.config().admit_elevated - 1));
  EXPECT_FALSE(g.admit_ingest(g.config().admit_elevated));
  EXPECT_FALSE(g.shed_heartbeat());

  settle(g, (g.config().backlog_watermark * 3) / 4, clock, 50);
  ASSERT_EQ(g.level(), OverloadLevel::kSaturated);
  EXPECT_FALSE(g.admit_ingest(g.config().admit_saturated));
  EXPECT_TRUE(g.shed_heartbeat());
  EXPECT_FALSE(g.shed_gossip());  // gossip survives until Critical
  EXPECT_TRUE(g.reject_new_idents());
  EXPECT_EQ(g.pack_batch_limit(128), 64u);
  EXPECT_EQ(g.window_clamp(16), 8u);

  settle(g, g.config().backlog_watermark * 2, clock, 50);
  ASSERT_EQ(g.level(), OverloadLevel::kCritical);
  EXPECT_FALSE(g.admit_ingest(g.config().admit_critical));
  EXPECT_TRUE(g.admit_ingest(0));  // even Critical admits an empty backlog
  EXPECT_TRUE(g.shed_gossip());
  EXPECT_EQ(g.pack_batch_limit(128), 32u);
  EXPECT_EQ(g.window_clamp(16), 4u);
  // Clamps never hit zero.
  EXPECT_EQ(g.pack_batch_limit(1), 1u);
  EXPECT_EQ(g.window_clamp(1), 1u);
}

TEST(Governor, MaxOfAllSignalsDrivesPressure) {
  // Any single saturated signal must drive the ladder, not just backlog.
  auto drive = [](auto&& report) {
    OverloadGovernor g;
    Vt clock = vt_ms(1);
    for (int i = 0; i < 60; ++i) {
      report(g);
      clock += g.config().tick_interval;
      g.tick(clock);
    }
    return g.level();
  };
  EXPECT_EQ(drive([](OverloadGovernor& g) { g.report_recv_queue(10'000); }),
            OverloadLevel::kCritical);
  EXPECT_EQ(drive([](OverloadGovernor& g) { g.report_pool(256, 256); }),
            OverloadLevel::kCritical);
  EXPECT_EQ(drive([](OverloadGovernor& g) { g.report_loop_lag(vt_ms(50)); }),
            OverloadLevel::kCritical);
  // The kernel-boundary signals from the batched real loop drive the same
  // ladder: a send train the kernel will not drain, or receive drains that
  // never find the socket empty.
  EXPECT_EQ(drive([](OverloadGovernor& g) {
              g.report_net_train(g.config().net_train_watermark * 2);
            }),
            OverloadLevel::kCritical);
  EXPECT_EQ(drive([](OverloadGovernor& g) { g.report_net_drain(1.0); }),
            OverloadLevel::kCritical);
  // The router's storm detector: sustained churn (unknown cookies, fresh
  // ident scans, quota sheds) drives the same ladder.
  EXPECT_EQ(drive([](OverloadGovernor& g) { g.report_churn(1.0); }),
            OverloadLevel::kCritical);
}

TEST(Governor, NetSignalsNormalizeAgainstWatermarks) {
  OverloadGovernor g;
  Vt clock = vt_ms(1);
  // A train at 3/8 of the watermark settles at 0.375 pressure — inside the
  // Elevated band (>= 0.25), below Saturated (0.55).
  for (int i = 0; i < 60; ++i) {
    g.report_net_train(g.config().net_train_watermark * 3 / 8);
    clock += g.config().tick_interval;
    g.tick(clock);
  }
  EXPECT_EQ(g.level(), OverloadLevel::kElevated) << g.pressure();

  // Drain saturation is event-shaped: a burst of zero reports decays it.
  OverloadGovernor h;
  clock = vt_ms(1);
  h.report_net_drain(1.0);
  for (int i = 0; i < 80; ++i) {
    h.report_net_drain(0.0);
    clock += h.config().tick_interval;
    h.tick(clock);
  }
  EXPECT_EQ(h.level(), OverloadLevel::kNormal) << h.pressure();
}

// ---------------------------------------------------------------------------
// FaultSocket: deterministic schedule.
// ---------------------------------------------------------------------------

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           std::uint64_t>
stats_tuple(const FaultSocket& fs) {
  const resil::FaultStats& s = fs.stats();
  return {s.dropped, s.duplicated, s.corrupted, s.truncated, s.delayed};
}

TEST(FaultSocketTest, SameSeedSameSchedule) {
  FaultConfig fc;
  fc.loss_prob = 0.1;
  fc.dup_prob = 0.05;
  fc.corrupt_prob = 0.08;
  fc.truncate_prob = 0.05;
  fc.delay_jitter = vt_us(200);
  auto run = [&](std::uint64_t seed) {
    FaultSocket fs(fc, seed);
    std::vector<FaultSocket::Verdict> verdicts;
    for (int i = 0; i < 500; ++i) verdicts.push_back(fs.judge(64 + i % 32));
    return std::make_pair(stats_tuple(fs), verdicts);
  };
  auto [s1, v1] = run(7);
  auto [s2, v2] = run(7);
  auto [s3, v3] = run(8);
  EXPECT_EQ(s1, s2);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    EXPECT_EQ(v1[i].drop, v2[i].drop);
    EXPECT_EQ(v1[i].copies, v2[i].copies);
    EXPECT_EQ(v1[i].delay, v2[i].delay);
    EXPECT_EQ(v1[i].corrupt_bit, v2[i].corrupt_bit);
    EXPECT_EQ(v1[i].truncate_to, v2[i].truncate_to);
  }
  EXPECT_NE(s1, s3) << "different seeds must give different schedules";
}

TEST(FaultSocketTest, RxLaneIsIndependentAndDeterministic) {
  FaultConfig txc;
  txc.loss_prob = 0.1;
  txc.dup_prob = 0.05;
  txc.delay_jitter = vt_us(100);
  FaultConfig rxc;
  rxc.loss_prob = 0.3;
  rxc.truncate_prob = 0.1;
  rxc.corrupt_prob = 0.1;
  using Dir = FaultSocket::Dir;

  // Reference: the tx lane judged alone (the legacy single-lane schedule).
  FaultSocket ref(txc, 7);
  std::vector<FaultSocket::Verdict> tx_ref;
  for (int i = 0; i < 300; ++i) tx_ref.push_back(ref.judge(64 + i % 16));

  // Same seed, rx lane armed and judged between every tx draw: the tx
  // verdict sequence must be bit-identical — arming or exercising rx never
  // perturbs a tx schedule already in flight (per-lane Rng).
  FaultSocket fs(txc, 7);
  fs.set_config(Dir::kRx, rxc);
  std::vector<FaultSocket::Verdict> rx1;
  for (int i = 0; i < 300; ++i) {
    const auto tv = fs.judge(Dir::kTx, 64 + i % 16);
    EXPECT_EQ(tv.drop, tx_ref[i].drop);
    EXPECT_EQ(tv.copies, tx_ref[i].copies);
    EXPECT_EQ(tv.delay, tx_ref[i].delay);
    EXPECT_EQ(tv.corrupt_bit, tx_ref[i].corrupt_bit);
    EXPECT_EQ(tv.truncate_to, tx_ref[i].truncate_to);
    rx1.push_back(fs.judge(Dir::kRx, 64 + i % 16));
  }

  // The rx lane's own schedule is seed-deterministic regardless of how the
  // two lanes interleave: a second socket judging rx only reproduces it.
  FaultSocket fs2(txc, 7);
  fs2.set_config(Dir::kRx, rxc);
  for (int i = 0; i < 300; ++i) {
    const auto rv = fs2.judge(Dir::kRx, 64 + i % 16);
    EXPECT_EQ(rv.drop, rx1[i].drop);
    EXPECT_EQ(rv.copies, rx1[i].copies);
    EXPECT_EQ(rv.corrupt_bit, rx1[i].corrupt_bit);
    EXPECT_EQ(rv.truncate_to, rx1[i].truncate_to);
  }

  // Per-lane books: each lane counted its own offered datagrams, and the
  // rx draws decorrelate from tx (same seed, different salt — the lanes
  // must not shadow each other's fates).
  EXPECT_EQ(fs.stats(Dir::kTx).offered, 300u);
  EXPECT_EQ(fs.stats(Dir::kRx).offered, 300u);
  EXPECT_GT(fs.stats(Dir::kRx).dropped, 0u);
}

TEST(FaultSocketTest, GilbertElliottBursts) {
  FaultConfig fc;
  fc.ge_enabled = true;  // defaults mirror sim/network: ~12.5% mean loss
  FaultSocket fs(fc, 42);
  for (int i = 0; i < 4000; ++i) fs.judge(100);
  const double rate = static_cast<double>(fs.stats().dropped) / 4000.0;
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.25);
}

TEST(FaultSocketTest, PauseBlackholesEverything) {
  FaultConfig fc;
  fc.paused = true;
  FaultSocket fs(fc, 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fs.judge(50).drop);
  fc.paused = false;
  fs.set_config(fc);
  EXPECT_FALSE(fs.judge(50).drop);
}

TEST(FaultSocketTest, ApplyMutatesAsJudged) {
  // Truncation then corruption land inside the surviving prefix.
  FaultSocket::Verdict v;
  v.truncate_to = 4;
  v.corrupt = true;
  v.corrupt_bit = 77;  // beyond 4 bytes: folded into the prefix
  std::vector<std::uint8_t> bytes(16, 0);
  FaultSocket::apply(v, bytes);
  ASSERT_EQ(bytes.size(), 4u);
  int flipped = 0;
  for (std::uint8_t b : bytes) {
    while (b) {
      flipped += b & 1;
      b >>= 1;
    }
  }
  EXPECT_EQ(flipped, 1);
}

// ---------------------------------------------------------------------------
// Real-path chaos: the PR-1 scenarios over real loopback sockets.
// ---------------------------------------------------------------------------

bool sockets_available() {
  RealLoop probe;
  return probe.open_udp(0) >= 0;
}

#define REQUIRE_SOCKETS() \
  if (!sockets_available()) GTEST_SKIP() << "no UDP sockets in this sandbox"

struct ChaosPair {
  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};

  explicit ChaosPair(const FaultConfig& fault_ab, std::uint64_t seed = 1) {
    a.connect_to(b.local_port());
    b.connect_to(a.local_port());
    PaConfig ca;
    ca.costs = CostModel::zero();
    ca.cookie_seed = 1;
    // Packing would fold a whole burst into a handful of trains and starve
    // the injector of datagrams; chaos wants every message individually at
    // risk on the wire.
    ca.enable_packing = false;
    PaConfig cb = ca;
    cb.cookie_seed = 2;
    a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
    b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});
    loop.set_fault(a.sock(), fault_ab, seed);
  }
};

// A reliable stream must deliver everything, in order, through the injector.
void expect_reliable_stream(ChaosPair& p, std::uint32_t n, VtDur budget) {
  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= n; }, budget))
      << "delivered " << got.size() << "/" << n;
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_EQ(got[i], i);
}

TEST(RealChaos, SurvivesBurstLoss) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.ge_enabled = true;  // Gilbert–Elliott bursts, ~12.5% mean loss
  ChaosPair p(fc, /*seed=*/3);
  expect_reliable_stream(p, 150, vt_s(20));
  EXPECT_GT(p.loop.fault(p.a.sock())->stats().dropped, 0u)
      << "the injector never bit — test proves nothing";
}

TEST(RealChaos, SurvivesCorruption) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.corrupt_prob = 0.10;  // one random bit per afflicted datagram
  ChaosPair p(fc, /*seed=*/4);
  expect_reliable_stream(p, 150, vt_s(20));
  EXPECT_GT(p.loop.fault(p.a.sock())->stats().corrupted, 0u);
  // Corrupted frames must die in the filter/router, not reach the app
  // (expect_reliable_stream already asserted payload integrity).
}

TEST(RealChaos, SurvivesTruncation) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.truncate_prob = 0.10;
  ChaosPair p(fc, /*seed=*/5);
  expect_reliable_stream(p, 150, vt_s(20));
  EXPECT_GT(p.loop.fault(p.a.sock())->stats().truncated, 0u);
}

TEST(RealChaos, SurvivesDuplicationAndReorder) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.dup_prob = 0.10;
  fc.delay_jitter = vt_ms(2);  // held datagrams reorder against later sends
  ChaosPair p(fc, /*seed=*/6);
  expect_reliable_stream(p, 150, vt_s(20));
  const resil::FaultStats& s = p.loop.fault(p.a.sock())->stats();
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.delayed, 0u);
}

TEST(RealChaos, SurvivesRxIngestChaos) {
  REQUIRE_SOCKETS();
  // The receive-side lane: datagrams are judged at ingest on B's socket
  // (after recvmmsg, before the frame handler) — loss bursts, duplicates
  // and truncation hit the arriving data instead of the wire. A's tx lane
  // stays fault-free, so every repair is driven by B's ingest verdicts.
  ChaosPair p(FaultConfig{}, /*seed=*/12);
  FaultConfig rx;
  rx.ge_enabled = true;
  rx.dup_prob = 0.05;
  rx.truncate_prob = 0.05;
  p.loop.set_fault_rx(p.b.sock(), rx, /*seed=*/12);
  expect_reliable_stream(p, 150, vt_s(20));
  using Dir = resil::FaultSocket::Dir;
  const resil::FaultStats& s = p.loop.fault(p.b.sock())->stats(Dir::kRx);
  EXPECT_GT(s.dropped, 0u) << "the rx lane never bit — test proves nothing";
  // The tx lane on the same socket stayed clean: B's acks all left intact.
  EXPECT_EQ(p.loop.fault(p.b.sock())->stats(Dir::kTx).dropped, 0u);
}

TEST(RealChaos, PauseThenHealRecovers) {
  REQUIRE_SOCKETS();
  ChaosPair p(FaultConfig{}, /*seed=*/7);
  int got = 0;
  p.b.on_deliver([&](std::span<const std::uint8_t>) { ++got; });

  std::vector<std::uint8_t> msg{1, 2, 3};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return got >= 1; }, vt_s(5)));

  // Blackhole a->b mid-connection; sends during the pause must neither
  // abort nor deliver, and the retransmission machinery repairs them after
  // the heal.
  FaultConfig paused;
  paused.paused = true;
  p.loop.fault(p.a.sock())->set_config(paused);
  for (int i = 0; i < 5; ++i) p.a.send(msg);
  p.loop.run_until([] { return false; }, vt_ms(80));
  EXPECT_EQ(got, 1);

  p.loop.fault(p.a.sock())->set_config(FaultConfig{});
  ASSERT_TRUE(p.loop.run_until([&] { return got >= 6; }, vt_s(20)))
      << "only " << got << " of 6 after heal";
}

TEST(RealChaos, PeerRestartReestablishesCookie) {
  REQUIRE_SOCKETS();
  ChaosPair p(FaultConfig{}, /*seed=*/8);
  int got = 0;
  p.b.on_deliver([&](std::span<const std::uint8_t>) { ++got; });

  std::vector<std::uint8_t> msg{42};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return got >= 1; }, vt_s(5)));

  // Crash+restart B's process: its router forgets A's cookie and its engine
  // draws a fresh one. A's subsequent frames carry the stale cookie and are
  // dropped until the silence detector re-identifies.
  p.b.router().reset();
  p.b.engine().on_restart();

  for (int i = 0; i < 3; ++i) p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return got >= 4; }, vt_s(20)))
      << "stream did not recover from peer restart: " << got;
  EXPECT_GT(p.a.engine().stats().recovery_entries +
                p.b.engine().stats().restarts,
            0u);
}

// ---------------------------------------------------------------------------
// Real-path governor integration: overload at the ingest really sheds.
// ---------------------------------------------------------------------------

TEST(RealChaos, GovernorShedsIngestUnderBlast) {
  REQUIRE_SOCKETS();
  GovernorConfig gc;
  gc.backlog_watermark = 32;  // tiny watermarks so a blast saturates fast
  gc.admit_elevated = 24;
  gc.admit_saturated = 12;
  gc.admit_critical = 4;
  gc.tick_interval = vt_us(10);
  OverloadGovernor gov(gc);

  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};
  a.connect_to(b.local_port());
  b.connect_to(a.local_port());
  PaConfig ca;
  ca.costs = CostModel::zero();
  ca.cookie_seed = 1;
  ca.governor = &gov;
  PaConfig cb;
  cb.costs = CostModel::zero();
  cb.cookie_seed = 2;
  a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
  b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});
  loop.set_governor(&gov);

  std::uint32_t got = 0;
  b.on_deliver([&](std::span<const std::uint8_t>) { ++got; });

  // Blast far beyond the window + admission watermarks without letting the
  // loop drain: admission control must shed, not queue without bound.
  std::vector<std::uint8_t> msg(32, 0xab);
  const std::uint32_t kBlast = 2000;
  for (std::uint32_t i = 0; i < kBlast; ++i) a.send(msg);

  const std::uint64_t shed =
      a.engine().stats().drops[DropReason::kShedIngest];
  EXPECT_GT(shed, 0u) << "governor never engaged";
  EXPECT_GE(gov.max_level(), OverloadLevel::kElevated);

  // Everything *admitted* still arrives: shed is loss-with-receipt, and
  // admitted + shed accounts for the whole blast. No silent loss.
  const std::uint64_t admitted = kBlast - shed;
  ASSERT_TRUE(
      loop.run_until([&] { return got >= admitted; }, vt_s(30)))
      << "delivered " << got << " of " << admitted << " admitted";
  EXPECT_EQ(got + shed, kBlast);
}

}  // namespace
}  // namespace pa
