// Heap allocations per message on the steady-state ping-pong path: the PA
// must allocate no more than the classic engine it accelerates, and neither
// more than 5 (a header chunk, a payload chunk and its slice list, the
// stored retransmission share's slice list, the wire frame's slice list).
//
// This executable replaces the global operator new with a counting one (the
// library itself has no hook). Two engines of one kind are joined in
// process through a pair of direct Envs with a frozen clock: a frame goes
// straight into the peer's inbox, deferred work runs when the pair is
// pumped, and no timer ever comes due. The Envs reuse their queues' storage,
// so after a warm-up every allocation counted is the engines' own. The
// count is taken over 10,000 round trips of 64 B each way and divided by
// the 20,000 messages.
//
// The same ping-pong counts each layer's predict_* calls: the PA predicts
// the fixed layers (LayerTraits::fixed_prediction) once, at construction,
// and only the others at each rebuild.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "classic/engine.h"
#include "forwarding_layer.h"
#include "pa/accelerator.h"

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Every unaligned form is replaced, so whichever form frees a block, it was
// taken from malloc (the aligned forms keep the library's own pair).
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pa {
namespace {

constexpr int kWarmupRoundTrips = 1000;
constexpr int kRoundTrips = 10000;
constexpr std::size_t kPayloadBytes = 64;

class PairEnv final : public Env {
 public:
  Vt now() const override { return 0; }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    send_frame(WireFrame::adopt(std::move(f)));
  }
  void send_frame(WireFrame f) override { peer->inbox.push_back(std::move(f)); }
  void deliver(std::span<const std::uint8_t>) override { ++delivered; }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void set_timer(VtDur, std::function<void()>) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  /// Hand the inbox to the engine, then run the deferred work. False when
  /// there was nothing to do.
  bool step() {
    if (inbox.empty() && deferred.empty()) return false;
    // Frames this engine sends go to the peer's inbox, never to its own.
    for (WireFrame& f : inbox) engine->on_frame(std::move(f), 0);
    inbox.clear();
    // By index: deferred work may defer more, which runs in this step.
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      std::function<void()> fn = std::move(deferred[i]);
      fn();
    }
    deferred.clear();
    return true;
  }

  Engine* engine = nullptr;
  PairEnv* peer = nullptr;
  std::vector<WireFrame> inbox;
  std::vector<std::function<void()>> deferred;
  std::uint64_t delivered = 0;
};

/// Two engines of one kind joined through a pair of PairEnvs.
template <typename E>
struct PingPong {
  template <typename Cfg>
  PingPong(const Cfg& cfg_a, const Cfg& cfg_b) : a(cfg_a, ea), b(cfg_b, eb) {
    ea.engine = &a;
    eb.engine = &b;
    ea.peer = &eb;
    eb.peer = &ea;
  }

  void pump() {
    while (ea.step() | eb.step()) {
    }
  }
  /// `n` round trips of kPayloadBytes each way.
  void round_trips(int n) {
    for (int i = 0; i < n; ++i) {
      a.send(payload);
      pump();
      b.send(payload);
      pump();
    }
  }
  std::uint64_t delivered() const { return ea.delivered + eb.delivered; }

  PairEnv ea, eb;
  E a, b;
  const std::vector<std::uint8_t> payload =
      std::vector<std::uint8_t>(kPayloadBytes, 0x5a);
};

template <typename E, typename Cfg>
double allocs_per_msg(const Cfg& cfg_a, const Cfg& cfg_b) {
  PingPong<E> p(cfg_a, cfg_b);
  p.round_trips(kWarmupRoundTrips);

  const std::uint64_t delivered0 = p.delivered();
  const std::uint64_t allocs0 = g_allocs;
  p.round_trips(kRoundTrips);
  const std::uint64_t allocs = g_allocs - allocs0;
  EXPECT_EQ(p.delivered() - delivered0, 2u * kRoundTrips);
  return static_cast<double>(allocs) / static_cast<double>(2 * kRoundTrips);
}

TEST(Allocations, PaAllocatesNoMoreThanClassicPerMessage) {
  PaConfig pa_a, pa_b;
  pa_a.cookie_seed = 1;
  pa_b.cookie_seed = 2;
  const double pa = allocs_per_msg<PaEngine>(pa_a, pa_b);
  const double classic =
      allocs_per_msg<ClassicEngine>(ClassicConfig{}, ClassicConfig{});
  std::printf("heap allocations per message: PA %.2f, classic %.2f\n", pa,
              classic);
  RecordProperty("pa_allocs_per_msg", std::to_string(pa));
  RecordProperty("classic_allocs_per_msg", std::to_string(classic));
  EXPECT_LE(pa, classic);
  EXPECT_LE(pa, 5.0);
  EXPECT_LE(classic, 5.0);
}

// ---------------------------------------------------------------------------
// predict_* calls per layer

struct PredictCalls {
  std::uint64_t send = 0;
  std::uint64_t deliver = 0;
};

/// Counts its layer's predict_* calls into `calls`.
class PredictCounter final : public ForwardingLayer {
 public:
  PredictCounter(std::unique_ptr<Layer> inner, PredictCalls* calls)
      : ForwardingLayer(std::move(inner)), calls_(calls) {}

  void predict_send(HeaderView& hdr) const override {
    ++calls_->send;
    ForwardingLayer::predict_send(hdr);
  }
  void predict_deliver(HeaderView& hdr) const override {
    ++calls_->deliver;
    ForwardingLayer::predict_deliver(hdr);
  }

 private:
  PredictCalls* calls_;
};

TEST(Predictions, FixedLayersArePredictedOnceAtConstruction) {
  // calls[i] sums layer i of the paper stack (frag, seq, window, bottom)
  // over both engines.
  const StackSpec paper = StackSpec::paper();
  std::vector<PredictCalls> calls(paper.layers.size());
  auto config = [&](std::uint64_t cookie_seed) {
    PaConfig cfg;
    cfg.cookie_seed = cookie_seed;
    for (std::size_t i = 0; i < paper.layers.size(); ++i) {
      cfg.stack.spec.layers[i] =
          LayerSpec::custom([inner = paper.layers[i], c = &calls[i]] {
            return std::make_unique<PredictCounter>(inner.build(), c);
          });
    }
    return cfg;
  };
  PingPong<PaEngine> p(config(1), config(2));
  const Stack& stack = p.a.stack();
  ASSERT_EQ(stack.size(), 4u);

  // Construction: a fixed layer predicts each side once, the deliver side
  // once per peer byte order; a varying layer joins the first rebuilds.
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE(std::string(stack.layer(i).name()));
    if (stack.layer(i).traits().fixed_prediction) {
      EXPECT_EQ(calls[i].send, 2u);
      EXPECT_EQ(calls[i].deliver, 4u);
    } else {
      EXPECT_EQ(calls[i].send, 2u);
      EXPECT_EQ(calls[i].deliver, 2u);
    }
  }

  p.round_trips(kWarmupRoundTrips);
  const std::vector<PredictCalls> calls0 = calls;
  const std::uint64_t delivered0 = p.delivered();
  p.round_trips(kRoundTrips);
  const auto msgs = static_cast<double>(p.delivered() - delivered0);
  ASSERT_EQ(msgs, 2.0 * kRoundTrips);
  // Each message is one rebuild of the send prediction at its sender's
  // post-send batch, and one of each prediction at its receiver's
  // post-deliver batch.
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::string name(stack.layer(i).name());
    const double send = static_cast<double>(calls[i].send - calls0[i].send);
    const double deliver =
        static_cast<double>(calls[i].deliver - calls0[i].deliver);
    std::printf("predict calls per message, %s: send %.2f, deliver %.2f\n",
                name.c_str(), send / msgs, deliver / msgs);
    SCOPED_TRACE(name);
    const bool fixed = name == "frag" || name == "bottom";
    EXPECT_EQ(stack.layer(i).traits().fixed_prediction, fixed);
    EXPECT_DOUBLE_EQ(send / msgs, fixed ? 0.0 : 2.0);
    EXPECT_DOUBLE_EQ(deliver / msgs, fixed ? 0.0 : 1.0);
  }
}

}  // namespace
}  // namespace pa
