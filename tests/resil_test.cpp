// Tests for the overload-resilience subsystem (src/resil/): the overload
// governor's ladder/hysteresis/policies, the fault model (FaultSocket's
// deterministic lanes, the one judge and mutation shared with the
// simulated network), and the real-path chaos scenarios — the simulator's
// fault vocabulary (corruption, truncation, burst loss, pause, peer
// restart) replayed against real loopback UDP sockets through RealLoop's
// injector seam. Socket tests skip (not fail) when the sandbox forbids sockets.
#include <gtest/gtest.h>

#include <tuple>

#include "net/real_endpoint.h"
#include "sim/network.h"
#include "resil/fault_socket.h"
#include "resil/governor.h"

namespace pa {
namespace {

using resil::FaultConfig;
using resil::FaultSocket;
using resil::FaultVerdict;
using Dir = resil::FaultSocket::Dir;
using resil::OverloadGovernor;
using resil::OverloadLevel;

// ---------------------------------------------------------------------------
// Governor: ladder, hysteresis, policies.
// ---------------------------------------------------------------------------

// Drive the governor with a constant backlog signal until its EWMA settles.
void settle(OverloadGovernor& g, std::size_t backlog, Vt& clock, int ticks) {
  for (int i = 0; i < ticks; ++i) {
    g.report_backlog(backlog);
    clock += OverloadGovernor::kTickInterval;
    g.tick(clock);
  }
}

TEST(Governor, ClimbsTheLadderAsPressureRises) {
  OverloadGovernor g;
  Vt clock = vt_ms(1);
  EXPECT_EQ(g.level(), OverloadLevel::kNormal);

  constexpr std::size_t wm = OverloadGovernor::kBacklogWatermark;
  settle(g, wm / 3, clock, 50);  // pressure ~0.33
  EXPECT_EQ(g.level(), OverloadLevel::kElevated);

  settle(g, (wm * 3) / 4, clock, 50);  // ~0.75
  EXPECT_EQ(g.level(), OverloadLevel::kSaturated);

  settle(g, wm * 2, clock, 50);  // clamped to 1.0
  EXPECT_EQ(g.level(), OverloadLevel::kCritical);
  EXPECT_EQ(g.max_level(), OverloadLevel::kCritical);
}

TEST(Governor, HysteresisHoldsLevelNearThreshold) {
  OverloadGovernor g;
  Vt clock = vt_ms(1);
  // Enter Saturated, then hover just below its entry threshold: the level
  // must hold (no flapping) until pressure clears the down margin.
  constexpr std::size_t wm = OverloadGovernor::kBacklogWatermark;
  settle(g, (wm * 3) / 4, clock, 60);
  ASSERT_EQ(g.level(), OverloadLevel::kSaturated);

  const double entry = OverloadGovernor::kUpSaturated;
  const std::size_t hover =
      static_cast<std::size_t>((entry - 0.03) * static_cast<double>(wm));
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
    g.report_backlog(OverloadGovernor::kBacklogWatermark * 4);
    clock += OverloadGovernor::kTickInterval;
    g.tick(clock);
    EXPECT_GE(g.level(), prev);
    prev = g.level();
  }
  EXPECT_EQ(g.level(), OverloadLevel::kCritical);
}

TEST(Governor, TickIsRateLimited) {
  OverloadGovernor g;
  g.report_backlog(OverloadGovernor::kBacklogWatermark);
  Vt clock = vt_ms(1);
  g.tick(clock);
  const std::uint64_t after_first = g.stats().ticks;
  // Sub-interval ticks are no-ops.
  for (int i = 0; i < 10; ++i) g.tick(clock + i);
  EXPECT_EQ(g.stats().ticks, after_first);
  g.tick(clock + OverloadGovernor::kTickInterval);
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

  settle(g, OverloadGovernor::kBacklogWatermark / 3, clock, 50);
  ASSERT_EQ(g.level(), OverloadLevel::kElevated);
  EXPECT_TRUE(g.admit_ingest(OverloadGovernor::kAdmitElevated - 1));
  EXPECT_FALSE(g.admit_ingest(OverloadGovernor::kAdmitElevated));
  EXPECT_FALSE(g.shed_heartbeat());

  settle(g, (OverloadGovernor::kBacklogWatermark * 3) / 4, clock, 50);
  ASSERT_EQ(g.level(), OverloadLevel::kSaturated);
  EXPECT_FALSE(g.admit_ingest(OverloadGovernor::kAdmitSaturated));
  EXPECT_TRUE(g.shed_heartbeat());
  EXPECT_FALSE(g.shed_gossip());  // gossip survives until Critical
  EXPECT_TRUE(g.reject_new_idents());
  EXPECT_EQ(g.pack_batch_limit(128), 64u);
  EXPECT_EQ(g.window_clamp(16), 8u);

  settle(g, OverloadGovernor::kBacklogWatermark * 2, clock, 50);
  ASSERT_EQ(g.level(), OverloadLevel::kCritical);
  EXPECT_FALSE(g.admit_ingest(OverloadGovernor::kAdmitCritical));
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
      clock += OverloadGovernor::kTickInterval;
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
              g.report_net_train(OverloadGovernor::kNetTrainWatermark * 2);
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
    g.report_net_train(OverloadGovernor::kNetTrainWatermark * 3 / 8);
    clock += OverloadGovernor::kTickInterval;
    g.tick(clock);
  }
  EXPECT_EQ(g.level(), OverloadLevel::kElevated) << g.pressure();

  // Drain saturation is event-shaped: a burst of zero reports decays it.
  OverloadGovernor h;
  clock = vt_ms(1);
  h.report_net_drain(1.0);
  for (int i = 0; i < 80; ++i) {
    h.report_net_drain(0.0);
    clock += OverloadGovernor::kTickInterval;
    h.tick(clock);
  }
  EXPECT_EQ(h.level(), OverloadLevel::kNormal) << h.pressure();
}

// ---------------------------------------------------------------------------
// The fault model: FaultSocket's lanes, and one judge for both paths.
// ---------------------------------------------------------------------------

// A socket whose tx lane carries `cfg`.
FaultSocket tx_socket(const FaultConfig& cfg, std::uint64_t seed) {
  FaultSocket fs(seed);
  fs.set_config(Dir::kTx, cfg);
  return fs;
}

void expect_same_verdict(const FaultVerdict& a, const FaultVerdict& b) {
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.corrupt, b.corrupt);
  EXPECT_EQ(a.corrupt_bit, b.corrupt_bit);
  EXPECT_EQ(a.truncate_to, b.truncate_to);
  EXPECT_EQ(a.delay, b.delay);
  EXPECT_EQ(a.duplicate, b.duplicate);
  EXPECT_EQ(a.dup_delay, b.dup_delay);
}

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           std::uint64_t>
stats_tuple(const FaultSocket& fs) {
  const resil::FaultStats& s = fs.stats(Dir::kTx);
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
    FaultSocket fs = tx_socket(fc, seed);
    std::vector<FaultVerdict> verdicts;
    for (int i = 0; i < 500; ++i) {
      verdicts.push_back(fs.judge(Dir::kTx, 64 + i % 32));
    }
    return std::make_pair(stats_tuple(fs), verdicts);
  };
  auto [s1, v1] = run(7);
  auto [s2, v2] = run(7);
  auto [s3, v3] = run(8);
  EXPECT_EQ(s1, s2);
  for (std::size_t i = 0; i < v1.size(); ++i) expect_same_verdict(v1[i], v2[i]);
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

  // Reference: the tx lane judged alone.
  FaultSocket ref = tx_socket(txc, 7);
  std::vector<FaultVerdict> tx_ref;
  for (int i = 0; i < 300; ++i) {
    tx_ref.push_back(ref.judge(Dir::kTx, 64 + i % 16));
  }

  // Same seed, rx lane armed and judged between every tx draw: the tx
  // verdict sequence must be bit-identical — arming or exercising rx never
  // perturbs a tx schedule already in flight (per-lane Rng).
  FaultSocket fs = tx_socket(txc, 7);
  fs.set_config(Dir::kRx, rxc);
  std::vector<FaultVerdict> rx1;
  for (int i = 0; i < 300; ++i) {
    expect_same_verdict(fs.judge(Dir::kTx, 64 + i % 16), tx_ref[i]);
    rx1.push_back(fs.judge(Dir::kRx, 64 + i % 16));
  }

  // The rx lane's own schedule is seed-deterministic regardless of how the
  // two lanes interleave: a second socket judging rx only reproduces it.
  FaultSocket fs2 = tx_socket(txc, 7);
  fs2.set_config(Dir::kRx, rxc);
  for (int i = 0; i < 300; ++i) {
    expect_same_verdict(fs2.judge(Dir::kRx, 64 + i % 16), rx1[i]);
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
  fc.ge_enabled = true;  // the defaults: ~12.5% mean loss
  FaultSocket fs = tx_socket(fc, 42);
  for (int i = 0; i < 4000; ++i) fs.judge(Dir::kTx, 100);
  const double rate =
      static_cast<double>(fs.stats(Dir::kTx).dropped) / 4000.0;
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.25);
}

TEST(FaultSocketTest, PauseBlackholesEverything) {
  FaultConfig fc;
  fc.paused = true;
  FaultSocket fs = tx_socket(fc, 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fs.judge(Dir::kTx, 50).drop);
  fc.paused = false;
  fs.set_config(Dir::kTx, fc);
  EXPECT_FALSE(fs.judge(Dir::kTx, 50).drop);
}

TEST(FaultSocketTest, PausedDatagramsDoNotAdvanceDropEvery) {
  FaultConfig fc;
  fc.drop_every = 3;
  fc.paused = true;
  FaultSocket fs = tx_socket(fc, 1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fs.judge(Dir::kTx, 50).drop);
  fc.paused = false;
  fs.set_config(Dir::kTx, fc);
  // The pause swallowed five datagrams without counting them, so the heal
  // starts the count where the pause found it: the third is the first drop.
  EXPECT_FALSE(fs.judge(Dir::kTx, 50).drop);
  EXPECT_FALSE(fs.judge(Dir::kTx, 50).drop);
  EXPECT_TRUE(fs.judge(Dir::kTx, 50).drop);
}

TEST(FaultSocketTest, DuplicateIsDrawnLast) {
  // The draw order is the simulator's: corruption, then the delay, then the
  // duplicate and its lag, which is 0 on a socket but still drawn.
  FaultConfig fc;
  fc.corrupt_prob = 0.5;
  fc.delay_jitter = vt_us(100);
  fc.dup_prob = 0.5;
  FaultSocket fs = tx_socket(fc, 5);
  Rng ref(5);  // the tx lane's Rng starts from the socket's seed
  constexpr std::size_t kLen = 40;
  std::uint64_t dups = 0;
  for (int i = 0; i < 200; ++i) {
    FaultVerdict want;
    want.corrupt = ref.chance(fc.corrupt_prob);
    if (want.corrupt) want.corrupt_bit = ref.next_below(kLen * 8);
    want.delay = ref.next_range(0, fc.delay_jitter);
    want.duplicate = ref.chance(fc.dup_prob);
    if (want.duplicate) want.dup_delay = ref.next_range(0, 0);
    expect_same_verdict(fs.judge(Dir::kTx, kLen), want);
    dups += want.duplicate;
  }
  EXPECT_GT(dups, 0u);
}

TEST(FaultModel, MutateFlipsThenTruncates) {
  // The flip lands at the judged bit of the whole frame, then the cut; a
  // flip beyond the cut is gone with the tail.
  const std::vector<std::uint8_t> zeros(16, 0);
  auto mutated = [&](std::uint64_t bit, std::size_t cut) {
    FaultVerdict v;
    v.corrupt = true;
    v.corrupt_bit = bit;
    v.truncate_to = cut;
    WireFrame f = WireFrame::adopt(zeros);
    resil::mutate(v, f);
    return f.flatten();
  };
  std::vector<std::uint8_t> want(4, 0);
  EXPECT_EQ(mutated(77, 4), want);  // byte 9: cut off
  want[1] = 1u << 2;
  EXPECT_EQ(mutated(10, 4), want);  // byte 1, bit 2: kept

  // The flip never reaches another holder of the frame's chunk.
  WireFrame sent = WireFrame::adopt(zeros);
  WireFrame in_flight = sent;
  FaultVerdict v;
  v.corrupt = true;
  v.corrupt_bit = 0;
  resil::mutate(v, in_flight);
  EXPECT_EQ(sent.flatten(), zeros);
  EXPECT_EQ(in_flight.flatten()[0], 1u);
}

TEST(FaultModel, SimLinkAndSocketLaneJudgeAlike) {
  // One judge: a simulated link and a socket lane with the same config and
  // the same seed drop, duplicate, corrupt and truncate the same frames the
  // same way.
  FaultConfig fc;
  fc.loss_prob = 0.05;
  fc.dup_prob = 0.1;
  fc.corrupt_prob = 0.2;
  fc.truncate_prob = 0.2;
  fc.delay_jitter = vt_us(50);
  fc.drop_every = 17;
  fc.ge_enabled = true;
  constexpr std::uint64_t kSeed = 31;

  EventQueue q;
  Rng rng(kSeed);
  SimNetwork net(q, rng);
  std::vector<std::vector<std::uint8_t>> arrived;
  const NodeId a = net.add_node("a", nullptr);
  const NodeId b = net.add_node(
      "b", [&](NodeId, WireFrame f, Vt) { arrived.push_back(f.flatten()); });
  LinkParams lp;
  lp.faults = fc;
  net.set_link(a, b, lp);
  FaultSocket fs = tx_socket(fc, kSeed);

  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> bytes(16 + i % 48);
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      bytes[k] = static_cast<std::uint8_t>(i + k);
    }
    arrived.clear();
    net.send(a, b, bytes, q.now());
    q.run();
    const FaultVerdict v = fs.judge(Dir::kTx, bytes.size());
    WireFrame expect = WireFrame::adopt(bytes);
    resil::mutate(v, expect);
    ASSERT_EQ(arrived.size(), v.drop ? 0u : v.duplicate ? 2u : 1u)
        << "frame " << i;
    for (const auto& got : arrived) ASSERT_EQ(got, expect.flatten()) << i;
  }
  const auto& ns = net.stats();
  const resil::FaultStats& ss = fs.stats(Dir::kTx);
  EXPECT_EQ(ns.frames_lost, ss.dropped);
  EXPECT_EQ(ns.frames_duplicated, ss.duplicated);
  EXPECT_EQ(ns.frames_corrupted, ss.corrupted);
  EXPECT_EQ(ns.frames_truncated, ss.truncated);
  // Every kind of fault happened, so every draw was compared.
  EXPECT_GT(ss.dropped, 0u);
  EXPECT_GT(ss.duplicated, 0u);
  EXPECT_GT(ss.corrupted, 0u);
  EXPECT_GT(ss.truncated, 0u);
}

// ---------------------------------------------------------------------------
// Real-path chaos: the simulator's scenarios over real loopback sockets.
// ---------------------------------------------------------------------------

bool sockets_available() {
  RealLoop probe;
  return probe.open_udp(0) >= 0;
}

#define REQUIRE_SOCKETS() \
  if (!sockets_available()) GTEST_SKIP() << "no UDP sockets in this sandbox"

TEST(RealLoopFault, RearmingTxLeavesTheRxScheduleUnbroken) {
  REQUIRE_SOCKETS();
  FaultConfig rx;
  rx.loss_prob = 0.3;
  rx.corrupt_prob = 0.2;
  rx.delay_jitter = vt_us(50);
  rx.ge_enabled = true;
  FaultSocket ref(11);
  ref.set_config(Dir::kRx, rx);

  RealLoop loop;
  const int sock = loop.open_udp(0);
  ASSERT_GE(sock, 0);
  loop.set_fault_rx(sock, rx, /*seed=*/11);
  FaultSocket& fs = *loop.fault(sock);
  for (int i = 0; i < 100; ++i) {
    expect_same_verdict(fs.judge(Dir::kRx, 64), ref.judge(Dir::kRx, 64));
  }
  // Re-arming tx restarts the tx lane only: the rx lane's next verdicts are
  // the ones an untouched lane would have drawn.
  FaultConfig tx;
  tx.loss_prob = 0.5;
  loop.set_fault(sock, tx, /*seed=*/99);
  for (int i = 0; i < 100; ++i) {
    expect_same_verdict(fs.judge(Dir::kRx, 64), ref.judge(Dir::kRx, 64));
  }
  EXPECT_EQ(fs.config(Dir::kTx).loss_prob, 0.5);
  EXPECT_EQ(fs.stats(Dir::kRx).offered, 200u);
}

TEST(RealLoopFault, ArmingRxAfterTxStartsFromItsSeed) {
  REQUIRE_SOCKETS();
  FaultConfig tx;
  tx.loss_prob = 0.5;
  FaultConfig rx;
  rx.loss_prob = 0.3;
  rx.corrupt_prob = 0.2;
  rx.delay_jitter = vt_us(50);
  rx.ge_enabled = true;

  RealLoop loop;
  const int both = loop.open_udp(0);
  const int rx_only = loop.open_udp(0);
  ASSERT_GE(both, 0);
  ASSERT_GE(rx_only, 0);
  // The injector already exists when rx is armed; its seed must still
  // start the rx lane, exactly as on a socket armed with rx alone.
  loop.set_fault(both, tx, /*seed=*/1);
  loop.set_fault_rx(both, rx, /*seed=*/12);
  loop.set_fault_rx(rx_only, rx, /*seed=*/12);
  FaultSocket& a = *loop.fault(both);
  FaultSocket& b = *loop.fault(rx_only);
  for (int i = 0; i < 200; ++i) {
    expect_same_verdict(a.judge(Dir::kRx, 64), b.judge(Dir::kRx, 64));
  }
  EXPECT_EQ(a.stats(Dir::kRx).dropped, b.stats(Dir::kRx).dropped);
  EXPECT_GT(a.stats(Dir::kRx).dropped, 0u);
}

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
  EXPECT_GT(p.loop.fault(p.a.sock())->stats(Dir::kTx).dropped, 0u)
      << "the injector never bit — test proves nothing";
}

TEST(RealChaos, SurvivesCorruption) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.corrupt_prob = 0.10;  // one random bit per afflicted datagram
  ChaosPair p(fc, /*seed=*/4);
  expect_reliable_stream(p, 150, vt_s(20));
  EXPECT_GT(p.loop.fault(p.a.sock())->stats(Dir::kTx).corrupted, 0u);
  // Corrupted frames must die in the filter/router, not reach the app
  // (expect_reliable_stream already asserted payload integrity).
}

TEST(RealChaos, SurvivesTruncation) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.truncate_prob = 0.10;
  ChaosPair p(fc, /*seed=*/5);
  expect_reliable_stream(p, 150, vt_s(20));
  EXPECT_GT(p.loop.fault(p.a.sock())->stats(Dir::kTx).truncated, 0u);
}

TEST(RealChaos, SurvivesDuplicationAndReorder) {
  REQUIRE_SOCKETS();
  FaultConfig fc;
  fc.dup_prob = 0.10;
  fc.delay_jitter = vt_ms(2);  // held datagrams reorder against later sends
  ChaosPair p(fc, /*seed=*/6);
  expect_reliable_stream(p, 150, vt_s(20));
  const resil::FaultStats& s = p.loop.fault(p.a.sock())->stats(Dir::kTx);
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
  p.loop.fault(p.a.sock())->set_config(Dir::kTx, paused);
  for (int i = 0; i < 5; ++i) p.a.send(msg);
  p.loop.run_until([] { return false; }, vt_ms(80));
  EXPECT_EQ(got, 1);

  p.loop.fault(p.a.sock())->set_config(Dir::kTx, FaultConfig{});
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
  OverloadGovernor gov;

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
