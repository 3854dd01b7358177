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
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "classic/engine.h"
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

void pump(PairEnv& a, PairEnv& b) {
  while (a.step() | b.step()) {
  }
}

template <typename E, typename Cfg>
double allocs_per_msg(const Cfg& cfg_a, const Cfg& cfg_b) {
  PairEnv ea, eb;
  E a(cfg_a, ea);
  E b(cfg_b, eb);
  ea.engine = &a;
  eb.engine = &b;
  ea.peer = &eb;
  eb.peer = &ea;
  const std::vector<std::uint8_t> payload(kPayloadBytes, 0x5a);
  auto round_trip = [&] {
    a.send(payload);
    pump(ea, eb);
    b.send(payload);
    pump(ea, eb);
  };
  for (int i = 0; i < kWarmupRoundTrips; ++i) round_trip();

  const std::uint64_t delivered0 = ea.delivered + eb.delivered;
  const std::uint64_t allocs0 = g_allocs;
  for (int i = 0; i < kRoundTrips; ++i) round_trip();
  const std::uint64_t allocs = g_allocs - allocs0;
  const std::uint64_t msgs = ea.delivered + eb.delivered - delivered0;
  EXPECT_EQ(msgs, 2u * kRoundTrips);
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

}  // namespace
}  // namespace pa
