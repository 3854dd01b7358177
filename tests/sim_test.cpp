// Unit tests: the discrete-event substrate — event queue, node CPU model,
// simulated network, cost model, GC model, and the Figure-4 timeline a
// simulated world renders from the span ring.
#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/gc_model.h"
#include "sim/network.h"
#include <algorithm>
#include <iterator>

#include "horus/world.h"
#include "obs/export.h"
#include "obs/trace_ring.h"

namespace pa {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(vt_us(30), [&] { order.push_back(3); });
  q.at(vt_us(10), [&] { order.push_back(1); });
  q.at(vt_us(20), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), vt_us(30));
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.at(vt_us(7), [&, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.at(vt_us(1), [&] {
    q.after(vt_us(5), [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), vt_us(6));
}

TEST(EventQueue, RunUntilAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.at(vt_us(10), [&] { ++fired; });
  q.at(vt_us(50), [&] { ++fired; });
  q.run_until(vt_us(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), vt_us(20));
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimCpu, SerializesWork) {
  EventQueue q;
  SimCpu cpu(q);
  std::vector<Vt> starts;
  // Two events both want the CPU at t=0; the second must wait 100 µs.
  cpu.post_at(0, [&] {
    starts.push_back(cpu.now());
    cpu.charge(vt_us(100));
  });
  cpu.post_at(0, [&] { starts.push_back(cpu.now()); });
  q.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], vt_us(100));
}

TEST(SimCpu, PostIdleRunsAfterCurrentWork) {
  EventQueue q;
  SimCpu cpu(q);
  Vt idle_at = -1;
  cpu.post_at(0, [&] {
    cpu.charge(vt_us(25));
    cpu.post_idle([&] { idle_at = cpu.now(); });
    cpu.charge(vt_us(75));  // charged after the defer call
  });
  q.run();
  EXPECT_EQ(idle_at, vt_us(100));
}

TEST(SimCpu, TracksTotalCharged) {
  EventQueue q;
  SimCpu cpu(q);
  cpu.post_at(0, [&] { cpu.charge(vt_us(10)); });
  cpu.post_at(vt_us(50), [&] { cpu.charge(vt_us(5)); });
  q.run();
  EXPECT_EQ(cpu.total_charged(), vt_us(15));
}

TEST(SimNetwork, LatencyComposition) {
  EventQueue q;
  Rng rng(1);
  SimNetwork net(q, rng);
  Vt arrived = -1;
  std::size_t got = 0;
  auto a = net.add_node("a", nullptr);
  auto b = net.add_node("b", [&](NodeId, WireFrame f, Vt at) {
    arrived = at;
    got = f.size();
  });
  net.set_handler(a, [](NodeId, WireFrame, Vt) {});

  LinkParams lp;  // defaults: 33.4 µs + 57.14 ns/B
  net.send(a, b, std::vector<std::uint8_t>(28), 0);
  q.run();
  ASSERT_EQ(got, 28u);
  // 28 B * 57.14 ns = 1.6 µs; total ~35 µs (paper's U-Net small-message
  // one-way latency).
  EXPECT_NEAR(vt_to_us(arrived), 35.0, 0.3);
  (void)lp;
}

TEST(SimNetwork, SerializationFifoDelaysBackToBackFrames) {
  EventQueue q;
  Rng rng(1);
  SimNetwork net(q, rng);
  std::vector<Vt> arrivals;
  auto a = net.add_node("a", nullptr);
  auto b = net.add_node("b", [&](NodeId, WireFrame, Vt at) {
    arrivals.push_back(at);
  });
  net.set_handler(a, [](NodeId, WireFrame, Vt) {});

  // Two 1400-byte frames sent at the same instant: the second serializes
  // behind the first (1400 B * 57.14 ns = 80 µs).
  net.send(a, b, std::vector<std::uint8_t>(1400), 0);
  net.send(a, b, std::vector<std::uint8_t>(1400), 0);
  q.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(vt_to_us(arrivals[1] - arrivals[0]), 80.0, 1.0);
}

TEST(SimNetwork, LossAndDuplication) {
  EventQueue q;
  Rng rng(3);
  SimNetwork net(q, rng);
  int received = 0;
  auto a = net.add_node("a", nullptr);
  auto b = net.add_node("b", [&](NodeId, WireFrame, Vt) {
    ++received;
  });
  net.set_handler(a, [](NodeId, WireFrame, Vt) {});

  LinkParams lossy;
  lossy.faults.loss_prob = 0.5;
  net.set_link(a, b, lossy);
  for (int i = 0; i < 200; ++i) net.send(a, b, {1, 2, 3}, q.now());
  q.run();
  EXPECT_GT(net.stats().frames_lost, 50u);
  EXPECT_LT(net.stats().frames_lost, 150u);
  EXPECT_EQ(static_cast<std::uint64_t>(received),
            net.stats().frames_delivered);

  LinkParams dupy;
  dupy.faults.dup_prob = 1.0;
  net.set_link(a, b, dupy);
  received = 0;
  net.send(a, b, {9}, q.now());
  q.run();
  EXPECT_EQ(received, 2);
}

TEST(SimNetwork, OversizeFramesDropped) {
  EventQueue q;
  Rng rng(1);
  SimNetwork net(q, rng);
  int received = 0;
  auto a = net.add_node("a", nullptr);
  auto b = net.add_node("b", [&](NodeId, WireFrame, Vt) {
    ++received;
  });
  net.set_handler(a, [](NodeId, WireFrame, Vt) {});
  net.send(a, b, std::vector<std::uint8_t>(20000), 0);
  q.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().frames_oversize, 1u);
}

TEST(CostModel, PaperPostProcessingTotals) {
  // The standard 4-layer stack must post-send in ~80 µs and post-deliver in
  // ~50 µs (paper §5 / Figure 4).
  CostModel m = CostModel::paper();
  VtDur post_send = m.ml_costs(LayerKind::kFrag).post_send +
                    m.ml_costs(LayerKind::kSeq).post_send +
                    m.ml_costs(LayerKind::kWindow).post_send +
                    m.ml_costs(LayerKind::kBottom).post_send;
  VtDur post_del = m.ml_costs(LayerKind::kFrag).post_deliver +
                   m.ml_costs(LayerKind::kSeq).post_deliver +
                   m.ml_costs(LayerKind::kWindow).post_deliver +
                   m.ml_costs(LayerKind::kBottom).post_deliver;
  EXPECT_EQ(post_send, vt_us(80));
  EXPECT_EQ(post_del, vt_us(50));
  // Doubling the window layer adds 15 µs to each (paper §5).
  EXPECT_EQ(m.ml_costs(LayerKind::kWindow).post_send, vt_us(15));
  EXPECT_EQ(m.ml_costs(LayerKind::kWindow).post_deliver, vt_us(15));
}

TEST(CostModel, ClassicCalibration) {
  // 4 layers, both directions + 2x35 µs wire ≈ the paper's 1.5 ms C-Horus
  // round trip.
  CostModel m = CostModel::paper();
  double rt_us = 2 * (vt_to_us(m.classic_send_cost(4)) + 35.0 +
                      vt_to_us(m.classic_deliver_cost(4)));
  EXPECT_NEAR(rt_us, 1500.0, 80.0);
}

TEST(CostModel, LanguageMultiplierScalesClassic) {
  CostModel m = CostModel::paper();
  m.classic_lang_multiplier = 9.4;  // FOX SML factor
  EXPECT_EQ(m.classic_send_cost(4), static_cast<VtDur>(vt_us(89) * 4 * 9.4));
}

TEST(GcModel, EveryReceptionCollects) {
  GcModel gc(GcPolicy::kEveryReception, 1);
  EXPECT_EQ(gc.poll(), 0);  // nothing received yet
  gc.on_reception();
  VtDur p = gc.poll();
  EXPECT_GE(p, vt_us(150));
  EXPECT_LE(p, vt_us(450));
  EXPECT_EQ(gc.poll(), 0);  // consumed
  EXPECT_EQ(gc.stats().collections, 1u);
}

TEST(GcModel, EveryNBatchesWithHiccup) {
  GcModel gc(GcPolicy::kEveryN, 1);
  gc.set_every_n(4);
  for (int i = 0; i < 3; ++i) {
    gc.on_reception();
    EXPECT_EQ(gc.poll(), 0);
  }
  gc.on_reception();
  VtDur p = gc.poll();
  // Batched collection pauses ~3x longer (the paper's ~1 ms hiccups).
  EXPECT_GE(p, vt_us(450));
  EXPECT_LE(p, vt_us(1350));
}

TEST(GcModel, AllocThreshold) {
  GcModel gc(GcPolicy::kAllocThreshold, 1);
  gc.set_alloc_threshold(1000);
  gc.on_alloc(400);
  EXPECT_EQ(gc.poll(), 0);
  gc.on_alloc(700);
  EXPECT_GT(gc.poll(), 0);
  EXPECT_EQ(gc.stats().allocated_bytes, 1100u);
}

TEST(GcModel, DisabledNeverCollects) {
  GcModel gc(GcPolicy::kDisabled, 1);
  for (int i = 0; i < 10; ++i) gc.on_reception();
  gc.on_alloc(1 << 20);
  EXPECT_EQ(gc.poll(), 0);
  EXPECT_EQ(gc.stats().collections, 0u);
}

// The Figure-4 timeline is rendered from the span ring: one PA round trip
// (GC after every reception, as bench_fig4 runs it) shows both nodes'
// columns, and its first rows come in the paper's order.
TEST(Timeline, PaRoundTripRendersBothNodesInFigure4Order) {
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;
  World w(wc);
  auto& a = w.add_node("sender");
  auto& b = w.add_node("receiver");
  auto [c, s] = w.connect(a, b, ConnOptions{});
  s->on_deliver([s = s](std::span<const std::uint8_t> p) { s->send(p); });
  c->send(std::vector<std::uint8_t>(8, 1));
  w.run();

  const std::vector<obs::TimelineRow> rows =
      obs::timeline_rows(obs::process_ring().snapshot(), w.span_owners());
  const std::pair<const char*, const char*> fig4[] = {
      {"sender", "SEND"},
      {"receiver", "DELIVER"},
      {"sender", "POSTSEND DONE"},
      {"receiver", "SEND"},
      {"sender", "DELIVER"},
      {"receiver", "POSTSEND DONE"},
      {"sender", "POSTDELIVER DONE"},
      {"receiver", "POSTDELIVER DONE"},
      {"sender", "GARBAGE COLLECTED"},
      {"receiver", "GARBAGE COLLECTED"},
  };
  ASSERT_GE(rows.size(), std::size(fig4));
  for (std::size_t i = 0; i < std::size(fig4); ++i) {
    EXPECT_EQ(rows[i].node, fig4[i].first) << "row " << i;
    EXPECT_STREQ(rows[i].label, fig4[i].second) << "row " << i;
  }
  // The wire leg sits between the sender's SEND and the receiver's DELIVER.
  EXPECT_EQ(rows[0].t, vt_us(25));
  EXPECT_GT(rows[1].t - rows[0].t, vt_us(35));

  const std::string text = obs::render_timeline(rows);
  EXPECT_EQ(text.find("  t (usec)  receiver"), 0u);
  EXPECT_NE(text.find("sender"), std::string::npos);
  EXPECT_NE(text.find("      25.0                                SEND"),
            std::string::npos);
}

}  // namespace
}  // namespace pa
