// The PA's clock reads on a wall clock. Every post batch and timer fire is
// one step, and every LayerOps::now() inside a step returns one instant, so
// a batch reads the clock at most once beyond its 1-in-kPhaseSampleEvery
// phase timing, and not at all when it opens at its frame's arrival.
//
// ClockReads counts every Env::now() over the steady-state ping-pong of
// tests/alloc_test.cpp (two engines joined in process, no timer ever due),
// with frames handed over without an arrival instant, with one, and with
// one older than the engine's last instant. StepInstant loses the first
// frame of a stream on a steady clock with working timers and checks that
// retransmission and the RTT estimator still see time move forward.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "classic/engine.h"
#include "forwarding_layer.h"
#include "layers/window_layer.h"
#include "pa/accelerator.h"

namespace pa {
namespace {

Vt steady_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kWarmupRoundTrips = 1000;
constexpr int kRoundTrips = 10000;
constexpr std::size_t kPayloadBytes = 64;

/// One side of two engines joined in process on a steady clock that counts
/// its reads. A frame goes straight into the peer's inbox; deferred work
/// and, when `run_timers` is set, due timers run when the side is stepped.
class SteadyPairEnv final : public Env {
 public:
  Vt now() const override {
    ++reads;
    return steady_now();
  }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    send_frame(WireFrame::adopt(std::move(f)));
  }
  void send_frame(WireFrame f) override {
    if (in_batch) ++frames_sent_in_batch;
    if (drop_next) {
      drop_next = false;
      return;
    }
    peer->inbox.push_back(std::move(f));
  }
  void deliver(std::span<const std::uint8_t> p) override {
    delivered.emplace_back(p.begin(), p.end());
    if (echo) engine->send(p);
  }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void set_timer(VtDur d, std::function<void()> fn) override {
    if (run_timers) timers.push_back({steady_now() + d, std::move(fn)});
  }
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  /// Hand the inbox to the engine, run the deferred work, then the due
  /// timers. False when there was no frame or deferred work. With
  /// `pass_at`, each frame's arrival instant is one steady_now() reading
  /// per step, taken outside the counted now(), minus `at_lag`; else 0.
  bool step() {
    if (inbox.empty() && deferred.empty() && timers.empty()) return false;
    const bool busy = !inbox.empty() || !deferred.empty();
    std::vector<WireFrame> frames = std::move(inbox);
    inbox.clear();
    const Vt at = pass_at ? steady_now() - at_lag : 0;
    for (WireFrame& f : frames) engine->on_frame(std::move(f), at);
    in_batch = true;
    // By index: deferred work may defer more, which runs in this step.
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      std::function<void()> fn = std::move(deferred[i]);
      ++batches;
      fn();
    }
    deferred.clear();
    in_batch = false;
    const Vt t = steady_now();
    for (std::size_t i = 0; i < timers.size();) {
      if (timers[i].due > t) {
        ++i;
        continue;
      }
      std::function<void()> fn = std::move(timers[i].fn);
      timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(i));
      fn();
    }
    return busy;
  }

  struct Timer {
    Vt due;
    std::function<void()> fn;
  };
  Engine* engine = nullptr;
  SteadyPairEnv* peer = nullptr;
  bool run_timers = false;
  bool pass_at = false;
  VtDur at_lag = 0;
  bool echo = false;       // send back every message delivered
  bool drop_next = false;  // lose the next frame sent
  bool in_batch = false;
  std::uint64_t frames_sent_in_batch = 0;
  std::uint64_t batches = 0;  // deferred closures run
  mutable std::uint64_t reads = 0;
  std::vector<WireFrame> inbox;
  std::vector<std::function<void()>> deferred;
  std::vector<Timer> timers;
  std::vector<std::vector<std::uint8_t>> delivered;
};

// ---------------------------------------------------------------------------
// Clock reads per message on the ping-pong

struct PerMsg {
  double reads;
  double batches;
};

template <typename E, typename Cfg>
PerMsg clock_reads_per_msg(const Cfg& cfg_a, const Cfg& cfg_b,
                           bool pass_at = false, VtDur at_lag = 0) {
  SteadyPairEnv ea, eb;
  E a(cfg_a, ea);
  E b(cfg_b, eb);
  ea.engine = &a;
  eb.engine = &b;
  ea.peer = &eb;
  eb.peer = &ea;
  ea.pass_at = eb.pass_at = pass_at;
  ea.at_lag = eb.at_lag = at_lag;
  auto pump = [&] {
    while (ea.step() | eb.step()) {
    }
  };
  const std::vector<std::uint8_t> payload(kPayloadBytes, 0x5a);
  auto round_trip = [&] {
    a.send(payload);
    pump();
    b.send(payload);
    pump();
  };
  for (int i = 0; i < kWarmupRoundTrips; ++i) round_trip();

  const std::size_t delivered0 = ea.delivered.size() + eb.delivered.size();
  const std::uint64_t reads0 = ea.reads + eb.reads;
  const std::uint64_t batches0 = ea.batches + eb.batches;
  for (int i = 0; i < kRoundTrips; ++i) round_trip();
  const auto msgs = static_cast<double>(
      ea.delivered.size() + eb.delivered.size() - delivered0);
  EXPECT_EQ(msgs, 2.0 * kRoundTrips);
  return {static_cast<double>(ea.reads + eb.reads - reads0) / msgs,
          static_cast<double>(ea.batches + eb.batches - batches0) / msgs};
}

TEST(ClockReads, PaReadsTheClockOncePerPostBatch) {
  PaConfig pa_a, pa_b;
  pa_a.cookie_seed = 1;
  pa_b.cookie_seed = 2;
  const PerMsg pa = clock_reads_per_msg<PaEngine>(pa_a, pa_b);
  const PerMsg classic =
      clock_reads_per_msg<ClassicEngine>(ClassicConfig{}, ClassicConfig{});
  std::printf("clock reads per message: PA %.2f, classic %.2f\n", pa.reads,
              classic.reads);
  RecordProperty("pa_clock_reads_per_msg", std::to_string(pa.reads));
  RecordProperty("classic_clock_reads_per_msg",
                 std::to_string(classic.reads));

  // Each message costs the PA one post-send and one post-deliver batch.
  EXPECT_DOUBLE_EQ(pa.batches, 2.0);
  // One read per batch for its step instant, plus the sampled phases, each
  // timed once in kPhaseSampleEvery calls and one call each per message:
  // start_send reads 2 (open, close), process_frame 3 (open, the
  // application hand-up mark, close) and each of the two batches 1 beyond
  // its instant (the close; the open is the instant).
  const double sampled = (2.0 + 3.0 + 2 * 1.0) / kPhaseSampleEvery;
  EXPECT_LE(pa.reads, pa.batches + sampled);
  EXPECT_LT(pa.reads, classic.reads);
}

TEST(ClockReads, PostDeliverBatchOpensAtTheFrameArrival) {
  PaConfig pa_a, pa_b;
  pa_a.cookie_seed = 1;
  pa_b.cookie_seed = 2;
  const PerMsg pa =
      clock_reads_per_msg<PaEngine>(pa_a, pa_b, /*pass_at=*/true);
  const PerMsg classic = clock_reads_per_msg<ClassicEngine>(
      ClassicConfig{}, ClassicConfig{}, /*pass_at=*/true);
  std::printf(
      "clock reads per message, frames with arrival instants: PA %.2f, "
      "classic %.2f\n",
      pa.reads, classic.reads);
  RecordProperty("pa_clock_reads_per_msg_arrival", std::to_string(pa.reads));

  EXPECT_DOUBLE_EQ(pa.batches, 2.0);
  // The post-deliver batch is scheduled while its frame is handled and
  // takes the frame's arrival as its instant; the post-send batch (the
  // test sends from outside any frame) still reads once. Sampled, as above,
  // except that a timed post-deliver batch reads 2 (its span's open and
  // close).
  const double sampled = (2.0 + 3.0 + 1.0 + 2.0) / kPhaseSampleEvery;
  EXPECT_LE(pa.reads, pa.batches - 1.0 + sampled);
  EXPECT_LT(pa.reads, classic.reads);
}

TEST(ClockReads, ArrivalOlderThanTheLastInstantFallsBackToARead) {
  // Every arrival is 1 s old: older than any instant the engine handed out
  // after its first batch, so each batch reads the clock as with at = 0.
  PaConfig pa_a, pa_b;
  pa_a.cookie_seed = 1;
  pa_b.cookie_seed = 2;
  const PerMsg pa = clock_reads_per_msg<PaEngine>(pa_a, pa_b,
                                                  /*pass_at=*/true, vt_ms(1000));
  EXPECT_DOUBLE_EQ(pa.batches, 2.0);
  EXPECT_GE(pa.reads, pa.batches);
}

// ---------------------------------------------------------------------------
// A shared instant keeps retransmission and RTT samples sound

/// Forwards every call to a WindowLayer and records each LayerOps::now() it
/// hands the window, from post phases and from the timers they arm. The
/// window stamps sent_at from these readings and takes every RTT sample as
/// a later reading minus one of them, so if they never go backwards no
/// sample is negative.
class NowProbe final : public ForwardingLayer {
 public:
  explicit NowProbe(std::vector<Vt>* seen)
      : ForwardingLayer(std::make_unique<WindowLayer>(config())),
        seen_(seen) {}

  /// Fast retransmit off: the lost head must come back through the RTO.
  static WindowConfig config() {
    WindowConfig cfg;
    cfg.fast_retransmit = false;
    return cfg;
  }
  const WindowLayer& window() const {
    return static_cast<const WindowLayer&>(inner());
  }

  void post_send(const Message& msg, const HeaderView& hdr,
                 LayerOps& ops) override {
    Ops probe(ops, seen_);
    ForwardingLayer::post_send(msg, hdr, probe);
  }
  void post_deliver(Message& msg, const HeaderView& hdr,
                    DeliverVerdict verdict, LayerOps& ops) override {
    Ops probe(ops, seen_);
    ForwardingLayer::post_deliver(msg, hdr, verdict, probe);
  }

 private:
  class Ops final : public LayerOps {
   public:
    Ops(LayerOps& ops, std::vector<Vt>* seen) : ops_(ops), seen_(seen) {}
    Vt now() const override {
      const Vt t = ops_.now();
      seen_->push_back(t);
      return t;
    }
    void emit_down(Message msg, std::function<void(HeaderView&)> fill,
                   bool unusual) override {
      ops_.emit_down(std::move(msg), std::move(fill), unusual);
    }
    void resend_raw(const Message& msg,
                    std::function<void(HeaderView&)> patch) override {
      ops_.resend_raw(msg, std::move(patch));
    }
    void release_up(Message msg) override { ops_.release_up(std::move(msg)); }
    void set_timer(VtDur delay, std::function<void(LayerOps&)> cb) override {
      ops_.set_timer(delay, [seen = seen_, cb = std::move(cb)](LayerOps& t) {
        Ops probe(t, seen);
        cb(probe);
      });
    }
    void disable_send() override { ops_.disable_send(); }
    void enable_send() override { ops_.enable_send(); }
    void disable_deliver() override { ops_.disable_deliver(); }
    void enable_deliver() override { ops_.enable_deliver(); }
    void notify_unreachable_peer() override {
      ops_.notify_unreachable_peer();
    }

   private:
    LayerOps& ops_;
    std::vector<Vt>* seen_;
  };

  std::vector<Vt>* seen_;
};

/// Loses A's first frame of a stream echoed by B and checks the repair and
/// every instant the windows saw. Frames reach each engine with an arrival
/// instant when `pass_at` is set (the step's reading minus `at_lag`).
void lost_first_frame(bool pass_at, VtDur at_lag) {
  constexpr std::uint8_t kMsgs = 8;
  std::vector<Vt> seen_a, seen_b;
  const NowProbe* win_a = nullptr;
  const NowProbe* win_b = nullptr;
  auto config = [](std::vector<Vt>* seen, const NowProbe** out,
                   std::uint64_t cookie_seed) {
    PaConfig cfg;
    cfg.cookie_seed = cookie_seed;
    *cfg.stack.spec.find(LayerSpec::Type::kWindow) =
        LayerSpec::custom([seen, out] {
          auto probe = std::make_unique<NowProbe>(seen);
          *out = probe.get();
          return probe;
        });
    return cfg;
  };
  SteadyPairEnv ea, eb;
  PaEngine a(config(&seen_a, &win_a, 1), ea);
  PaEngine b(config(&seen_b, &win_b, 2), eb);
  ASSERT_NE(win_a, nullptr);
  ASSERT_NE(win_b, nullptr);
  ea.engine = &a;
  eb.engine = &b;
  ea.peer = &eb;
  eb.peer = &ea;
  ea.run_timers = eb.run_timers = true;
  ea.pass_at = eb.pass_at = pass_at;
  ea.at_lag = eb.at_lag = at_lag;
  eb.echo = true;

  // A's first frame is lost, so B stashes the rest until A's RTO resends
  // it. Delivering the head releases the stash from B's post batch, and B
  // echoes each released message from inside that batch.
  ea.drop_next = true;
  for (std::uint8_t i = 0; i < kMsgs; ++i) {
    a.send(std::vector<std::uint8_t>(kPayloadBytes, i));
  }
  // The first RTO is WindowConfig::rto (20 ms): spin until both sides are
  // drained, or give up.
  const Vt give_up = steady_now() + vt_ms(5000);
  while (steady_now() < give_up) {
    ea.step();
    eb.step();
    const bool done = ea.delivered.size() == kMsgs &&
                      win_a->window().in_flight() == 0 &&
                      win_b->window().in_flight() == 0;
    if (done) break;
  }

  // The stream completes in order both ways.
  ASSERT_EQ(eb.delivered.size(), kMsgs);
  ASSERT_EQ(ea.delivered.size(), kMsgs);
  for (std::uint8_t i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(eb.delivered[i], std::vector<std::uint8_t>(kPayloadBytes, i));
    EXPECT_EQ(ea.delivered[i], std::vector<std::uint8_t>(kPayloadBytes, i));
  }
  EXPECT_EQ(win_a->window().in_flight(), 0u);
  EXPECT_EQ(win_b->window().in_flight(), 0u);
  // The RTO, not a fast retransmit, brought the head back.
  EXPECT_GE(win_a->window().stats().retransmits, 1u);
  EXPECT_EQ(win_a->window().stats().fast_retransmits, 0u);
  // B sent echoes from inside a post batch.
  EXPECT_GT(eb.frames_sent_in_batch, 0u);

  // Every instant a window saw is no earlier than the one before it, so no
  // RTT sample (a reading minus an earlier sent_at) is negative. Both sides
  // took samples: A for the messages after the lost head, B for its echoes.
  for (const std::vector<Vt>* seen : {&seen_a, &seen_b}) {
    ASSERT_FALSE(seen->empty());
    for (std::size_t i = 1; i < seen->size(); ++i) {
      ASSERT_LE((*seen)[i - 1], (*seen)[i]) << "reading " << i;
    }
  }
  EXPECT_GT(win_a->window().srtt(), 0);
  EXPECT_GT(win_b->window().srtt(), 0);
}

TEST(StepInstant, LostFirstFrameIsResentAndNoRttGoesBackwards) {
  lost_first_frame(/*pass_at=*/false, 0);
}

// Batches that open at their frame's arrival, and arrivals 1 s older than
// the step, which an engine must refuse once it has handed out a later
// instant: either way no window sees time go backwards.
TEST(StepInstant, ArrivalInstantsKeepRttSamplesSound) {
  {
    SCOPED_TRACE("arrival");
    lost_first_frame(/*pass_at=*/true, 0);
  }
  {
    SCOPED_TRACE("stale arrival");
    lost_first_frame(/*pass_at=*/true, vt_ms(1000));
  }
}

}  // namespace
}  // namespace pa
