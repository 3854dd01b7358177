// Tests for the real-time UDP transport (net/). These use actual loopback
// sockets with bounded wall-clock budgets; they skip (not fail) if the
// sandbox forbids socket creation.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "horus/wire_debug.h"
#include "net/real_endpoint.h"

namespace pa {
namespace {

bool sockets_available() {
  RealLoop probe;
  return probe.open_udp(0) >= 0;
}

#define REQUIRE_SOCKETS() \
  if (!sockets_available()) GTEST_SKIP() << "no UDP sockets in this sandbox"

WireFrame be32_frame(std::uint32_t v) {
  std::vector<std::uint8_t> bytes(4);
  store_be32(bytes.data(), v);
  return WireFrame::adopt(std::move(bytes));
}

struct Pair {
  RealLoop loop;
  RealEndpoint a{loop};
  RealEndpoint b{loop};

  Pair() {
    a.connect_to(b.local_port());
    b.connect_to(a.local_port());
    PaConfig ca;
    ca.costs = CostModel::zero();
    ca.cookie_seed = 1;
    PaConfig cb = ca;
    cb.cookie_seed = 2;
    a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
    b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});
  }
};

TEST(RealLoop, TimersFireInOrder) {
  RealLoop loop;
  std::vector<int> order;
  loop.set_timer(vt_ms(2), [&] { order.push_back(2); });
  loop.set_timer(vt_ms(1), [&] { order.push_back(1); });
  bool ok = loop.run_until([&] { return order.size() == 2; }, vt_ms(500));
  ASSERT_TRUE(ok);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(RealLoop, NowAdvances) {
  RealLoop loop;
  Vt t0 = loop.now();
  bool fired = false;
  loop.set_timer(vt_ms(5), [&] { fired = true; });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, vt_ms(500)));
  EXPECT_GE(loop.now() - t0, vt_ms(4));
}

TEST(RealUdp, OneMessage) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint8_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    got.assign(d.begin(), d.end());
  });
  std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return !got.empty(); }, vt_s(5)));
  EXPECT_EQ(got, msg);
  EXPECT_EQ(p.a.engine().stats().conn_ident_sent, 1u);
}

TEST(RealUdp, PingPongStaysOnFastPath) {
  REQUIRE_SOCKETS();
  Pair p;
  int done = 0;
  std::vector<std::uint8_t> ping(8, 7);
  p.b.on_deliver([&](std::span<const std::uint8_t> d) { p.b.send(d); });
  p.a.on_deliver([&](std::span<const std::uint8_t>) {
    if (++done < 100) p.a.send(ping);
  });
  p.a.send(ping);
  ASSERT_TRUE(p.loop.run_until([&] { return done >= 100; }, vt_s(10)));
  const auto& s = p.a.engine().stats();
  EXPECT_EQ(s.fast_sends, 100u);
  EXPECT_GT(s.fast_delivers, 95u);
}

TEST(RealUdp, StreamDeliversInOrder) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });
  for (std::uint32_t i = 0; i < 200; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= 200; }, vt_s(10)));
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
  // A burst of 200 against real post-processing must have packed some.
  EXPECT_GT(p.a.engine().stats().packed_batches, 0u);
}

TEST(RealUdp, LargeMessageFragmentsAndReassembles) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint8_t> big(40'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  std::vector<std::uint8_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    got.assign(d.begin(), d.end());
  });
  p.a.send(big);
  ASSERT_TRUE(p.loop.run_until([&] { return !got.empty(); }, vt_s(10)));
  EXPECT_EQ(got, big);
}

TEST(RealLoop, CancelPreventsFiring) {
  RealLoop loop;
  bool fired = false;
  std::uint64_t id = loop.set_timer(vt_ms(5), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel_timer(id));
  // Cancelling twice is a no-op, not an error.
  EXPECT_FALSE(loop.cancel_timer(id));
  bool other = false;
  loop.set_timer(vt_ms(10), [&] { other = true; });
  ASSERT_TRUE(loop.run_until([&] { return other; }, vt_ms(500)));
  EXPECT_FALSE(fired);
}

TEST(RealLoop, CancelAlreadyDueTimer) {
  // A timer whose deadline has passed but whose callback has not run yet
  // (the loop never got a chance to drain) must still be cancellable.
  RealLoop loop;
  bool fired = false;
  std::uint64_t id = loop.set_timer(vt_us(1), [&] { fired = true; });
  const Vt t0 = loop.now();
  while (loop.now() - t0 < vt_ms(2)) {
  }  // busy-wait past the deadline without running the loop
  EXPECT_TRUE(loop.cancel_timer(id));
  bool other = false;
  loop.set_timer(vt_ms(5), [&] { other = true; });
  ASSERT_TRUE(loop.run_until([&] { return other; }, vt_ms(500)));
  EXPECT_FALSE(fired);
}

TEST(RealLoop, CancelFiredTimerReturnsFalse) {
  RealLoop loop;
  bool fired = false;
  std::uint64_t id = loop.set_timer(vt_us(100), [&] { fired = true; });
  ASSERT_TRUE(loop.run_until([&] { return fired; }, vt_ms(500)));
  EXPECT_FALSE(loop.cancel_timer(id));
}

TEST(RealLoop, RearmInsideCallback) {
  // A callback that re-arms itself (the retransmission-timer shape) must
  // keep firing, and cancelling the latest id from inside must stop it.
  RealLoop loop;
  int fires = 0;
  std::uint64_t id = 0;
  std::function<void()> tick = [&] {
    if (++fires < 4) id = loop.set_timer(vt_us(200), tick);
  };
  id = loop.set_timer(vt_us(200), tick);
  ASSERT_TRUE(loop.run_until([&] { return fires >= 4; }, vt_s(5)));
  EXPECT_EQ(fires, 4);
  EXPECT_FALSE(loop.cancel_timer(id));  // last arm already fired
}

TEST(RealLoop, TimersScheduledDuringDrainRunInOrder) {
  // Two timers due at once; the first one schedules a third during the
  // drain. The new timer must not fire in the same drain pass (its deadline
  // is in the future) and must not be lost.
  RealLoop loop;
  std::vector<int> order;
  loop.set_timer(vt_us(100), [&] {
    order.push_back(1);
    loop.set_timer(vt_ms(2), [&] { order.push_back(3); });
  });
  loop.set_timer(vt_us(150), [&] { order.push_back(2); });
  ASSERT_TRUE(loop.run_until([&] { return order.size() >= 3; }, vt_s(5)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealLoop, CancelSiblingDuringDrain) {
  // Both timers are due in the same drain pass; the first cancels the
  // second before the heap pops it (lazy-cancellation path).
  RealLoop loop;
  bool victim_fired = false;
  bool done = false;
  std::uint64_t victim = 0;
  loop.set_timer(vt_us(100), [&] { loop.cancel_timer(victim); });
  victim = loop.set_timer(vt_us(150), [&] { victim_fired = true; });
  loop.set_timer(vt_ms(3), [&] { done = true; });
  ASSERT_TRUE(loop.run_until([&] { return done; }, vt_ms(500)));
  EXPECT_FALSE(victim_fired);
}

TEST(RealLoop, IdleHookFiresWhenPollIdle) {
  RealLoop loop;
  int idle = 0;
  loop.set_idle_hook([&] { ++idle; });
  bool fired = false;
  loop.set_timer(vt_ms(3), [&] { fired = true; });
  // Nothing to read while the timer pends, so poll reports idle at least
  // once before the timer fires.
  ASSERT_TRUE(loop.run_until([&] { return fired; }, vt_ms(500)));
  EXPECT_GE(idle, 1);
}

TEST(RealLoop, OpenSocketFromHandler) {
  REQUIRE_SOCKETS();
  // A frame handler that opens sockets grows the loop's socket table while
  // that very handler runs: neither the socket being drained nor the
  // running handler may move, and the next poll round must watch the new
  // sockets. Each new socket sends one datagram to itself.
  RealLoop loop;
  const int sa = loop.open_udp(0);
  const int sb = loop.open_udp(0);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  loop.set_peer(sa, loop.port(sb));
  int got = 0;
  int echoes = 0;
  loop.on_frame(sb, [&](WireFrame, Vt) {
    for (int k = 0; k < 8; ++k) {
      const int s = loop.open_udp(0);
      ASSERT_GE(s, 0);
      loop.set_peer(s, loop.port(s));
      loop.on_frame(s, [&echoes](WireFrame, Vt) { ++echoes; });
      loop.sendv(s, be32_frame(static_cast<std::uint32_t>(k)));
    }
    ++got;  // reads the handler's captures after the table grew
  });
  loop.sendv(sa, be32_frame(1));
  loop.sendv(sa, be32_frame(2));
  ASSERT_TRUE(loop.run_until([&] { return got >= 2 && echoes >= 16; },
                             vt_s(5)));
  EXPECT_EQ(got, 2);
  EXPECT_EQ(echoes, 16);
}

// The largest receive buffer the host grants (SO_RCVBUF requests clamp
// here before the kernel doubles them), or 0 where it cannot be read.
long rmem_max() {
  std::ifstream f("/proc/sys/net/core/rmem_max");
  long v = 0;
  return f >> v ? v : 0;
}

obs::Counter& rx_overflow() {
  return obs::registry().counter("net_loop_rx_overflow_total", "");
}

TEST(RealLoop, ReceiveBufferHoldsAFullWindow) {
  REQUIRE_SOCKETS();
  // The widest window in use, 64 frames just over the 8 KiB frag
  // threshold, all queued at a peer that does not read until run_until()
  // starts.
  RealLoop loop;
  const int sa = loop.open_udp(0);
  const int sb = loop.open_udp(0);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const long cap = rmem_max();
  if (cap <= 0) GTEST_SKIP() << "net.core.rmem_max is not readable here";
  const long granted = loop.rcvbuf_bytes(sb);
  EXPECT_EQ(granted, 2 * std::min<long>(RealLoop::kRcvBufBytes, cap));
  if (cap < RealLoop::kRcvBufBytes) {
    GTEST_SKIP() << "net.core.rmem_max (" << cap << ") clamps the grant to "
                 << granted << " bytes, below a full window";
  }

  loop.set_peer(sa, loop.port(sb));
  int got = 0;
  loop.on_frame(sb, [&](WireFrame f, Vt) {
    EXPECT_EQ(f.size(), 8192u + 64u);
    ++got;
  });
  const std::uint64_t overflow0 = rx_overflow().value();
  for (int i = 0; i < 64; ++i) {
    loop.sendv(sa, WireFrame::adopt(std::vector<std::uint8_t>(8192 + 64)));
  }
  ASSERT_TRUE(loop.run_until([&] { return got >= 64; }, vt_s(5)))
      << got << " of 64 arrived";
  EXPECT_EQ(got, 64);
  EXPECT_EQ(rx_overflow().value() - overflow0, 0u);
}

TEST(RealLoop, RxOverflowCountsEveryKernelDrop) {
  REQUIRE_SOCKETS();
  // Several buffers' worth of 16 KiB datagrams at a peer that does not
  // read: the kernel drops most, and every one is either delivered or
  // counted.
  RealLoop loop;
  const int sa = loop.open_udp(0);
  const int sb = loop.open_udp(0);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  loop.set_peer(sa, loop.port(sb));
  std::uint64_t got = 0;
  loop.on_frame(sb, [&](WireFrame, Vt) { ++got; });
  bool idle = false;
  loop.set_idle_hook([&] { idle = true; });

  obs::Counter& tx = obs::registry().counter("net_loop_datagrams_tx_total", "");
  const std::uint64_t tx0 = tx.value();
  const std::uint64_t overflow0 = rx_overflow().value();
  constexpr std::uint64_t kSent = 400;
  for (std::uint64_t i = 0; i < kSent; ++i) {
    loop.sendv(sa, WireFrame::adopt(std::vector<std::uint8_t>(16384)));
  }
  ASSERT_EQ(tx.value() - tx0, kSent);
  // The first poll finds the queue full; the loop idles once it is empty.
  ASSERT_TRUE(loop.run_until([&] { return idle; }, vt_s(5)));
  const std::uint64_t dropped = rx_overflow().value() - overflow0;
  EXPECT_GT(got, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(got + dropped, kSent);

  // The counter adds what grew since the last read, not the kernel total.
  loop.run_until([] { return false; }, vt_ms(5));
  EXPECT_EQ(rx_overflow().value() - overflow0, dropped);
}

// Wraps the fallback backend to model a kernel that accepts at most three
// datagrams per sendmmsg and pushes back (EAGAIN) on every other call —
// the partial-completion shapes the batched loop must survive.
class ClampingSendBackend final : public net::BatchIoBackend {
 public:
  const char* name() const override { return "clamp-test"; }
  int recv_batch(int fd, net::RxSlot* slots, std::size_t n) override {
    return inner_->recv_batch(fd, slots, n);
  }
  int send_batch(int fd, const net::TxDatagram* items,
                 std::size_t n) override {
    if (++calls_ % 2 == 0) {
      errno = EAGAIN;
      return -1;
    }
    return inner_->send_batch(fd, items, n > 3 ? 3 : n);
  }
  int calls() const { return calls_; }

 private:
  std::unique_ptr<net::BatchIoBackend> inner_ = net::make_fallback_backend();
  int calls_ = 0;
};

TEST(RealBatch, PartialSendKeepsRemainderQueued) {
  REQUIRE_SOCKETS();
  RealLoop loop;
  int sa = loop.open_udp(0);
  int sb = loop.open_udp(0);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  loop.set_peer(sa, loop.port(sb));
  loop.set_peer(sb, loop.port(sa));
  auto backend = std::make_unique<ClampingSendBackend>();
  const ClampingSendBackend* clamp = backend.get();
  loop.set_batch_backend(std::move(backend));
  auto& bc = net::batch_counters();

  // Outside run_until() a send leaves at once as one datagram: one
  // syscall, made by the backend.
  const std::uint64_t sys0 = bc.syscalls.value();
  loop.sendv(sa, be32_frame(100));
  EXPECT_EQ(bc.syscalls.value(), sys0 + 1);
  EXPECT_EQ(clamp->calls(), 1);

  std::vector<std::uint32_t> got;
  bool reply_parked = false;
  bool reply_seen = false;
  loop.on_frame(sb, [&](WireFrame f, Vt) {
    auto flat = f.flatten();
    ASSERT_EQ(flat.size(), 4u);
    got.push_back(load_be32(flat.data()));
    if (got.back() != 100) return;
    // A send from a frame handler joins the socket's train: nothing reaches
    // the kernel until the end-of-round flush.
    const std::uint64_t sys = bc.syscalls.value();
    const int calls = clamp->calls();
    loop.sendv(sb, f);
    reply_parked = bc.syscalls.value() == sys && clamp->calls() == calls;
  });
  loop.on_frame(sa, [&](WireFrame, Vt) { reply_seen = true; });

  const std::uint64_t partial0 = bc.tx_partial.value();
  // Park 12 datagrams in the train from a timer; the clamped kernel
  // accepts them 3 at a time with pushback between flushes. Every
  // datagram must still arrive, in order — none shed.
  loop.set_timer(vt_us(100), [&] {
    for (std::uint32_t i = 0; i < 12; ++i) loop.sendv(sa, be32_frame(i));
  });
  ASSERT_TRUE(loop.run_until(
      [&] { return got.size() >= 13 && reply_seen; }, vt_s(5)));
  ASSERT_EQ(got.size(), 13u);
  EXPECT_EQ(got[0], 100u);  // in the kernel before the loop ever ran
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_EQ(got[i + 1], i);
  EXPECT_TRUE(reply_parked);
  EXPECT_GT(clamp->calls(), 0);
  EXPECT_GT(bc.tx_partial.value(), partial0);
}

// Counts the datagrams the kernel accepted through the backend seam.
class CountingBackend final : public net::BatchIoBackend {
 public:
  explicit CountingBackend(std::unique_ptr<net::BatchIoBackend> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return "count-test"; }
  int recv_batch(int fd, net::RxSlot* slots, std::size_t n) override {
    return inner_->recv_batch(fd, slots, n);
  }
  int send_batch(int fd, const net::TxDatagram* items,
                 std::size_t n) override {
    const int rc = inner_->send_batch(fd, items, n);
    if (rc > 0) accepted_ += static_cast<std::uint64_t>(rc);
    return rc;
  }
  std::uint64_t accepted() const { return accepted_; }

 private:
  std::unique_ptr<net::BatchIoBackend> inner_;
  std::uint64_t accepted_ = 0;
};

// Two sockets on one loop whose sends all go through a CountingBackend;
// sb counts arrivals, and echoes them back to sa when `echo` is set.
struct CountedPair {
  RealLoop loop;
  int sa = loop.open_udp(0);
  int sb = loop.open_udp(0);
  CountingBackend* backend = nullptr;
  std::size_t arrived = 0;
  bool echo = false;

  explicit CountedPair(std::unique_ptr<net::BatchIoBackend> inner) {
    loop.set_peer(sa, loop.port(sb));
    loop.set_peer(sb, loop.port(sa));
    auto b = std::make_unique<CountingBackend>(std::move(inner));
    backend = b.get();
    loop.set_batch_backend(std::move(b));
    loop.on_frame(sb, [this](WireFrame f, Vt) {
      ++arrived;
      if (echo) loop.sendv(sb, std::move(f));
    });
    loop.on_frame(sa, [this](WireFrame, Vt) { ++arrived; });
  }
};

std::unique_ptr<net::BatchIoBackend> default_backend() {
  auto b = net::make_mmsg_backend();
  return b ? std::move(b) : net::make_fallback_backend();
}

// Runs `traffic`, waits for `arrivals`, and checks that the loop counted
// exactly the datagrams the backend accepted: none went around it.
void expect_every_datagram_crosses(CountedPair& p,
                                   const std::function<void()>& traffic,
                                   const std::function<std::size_t()>& want) {
  obs::Counter& tx =
      obs::registry().counter("net_loop_datagrams_tx_total", "");
  const std::uint64_t tx0 = tx.value();
  const std::uint64_t acc0 = p.backend->accepted();
  traffic();
  ASSERT_TRUE(p.loop.run_until([&] { return p.arrived >= want(); }, vt_s(5)))
      << p.arrived << " of " << want() << " arrived";
  EXPECT_EQ(p.arrived, want());
  EXPECT_EQ(tx.value() - tx0, p.backend->accepted() - acc0);
  EXPECT_EQ(p.backend->accepted() - acc0, p.arrived);
}

TEST(RealBatch, EveryDatagramCrossesTheBackend) {
  REQUIRE_SOCKETS();
  {
    SCOPED_TRACE("send outside run_until");
    CountedPair p(default_backend());
    expect_every_datagram_crosses(
        p, [&] { p.loop.sendv(p.sa, be32_frame(1)); }, [] { return 1u; });
  }
  {
    SCOPED_TRACE("send from a handler");
    CountedPair p(default_backend());
    p.echo = true;
    expect_every_datagram_crosses(
        p, [&] { p.loop.sendv(p.sa, be32_frame(1)); }, [] { return 2u; });
  }
  {
    SCOPED_TRACE("timer burst");
    CountedPair p(default_backend());
    expect_every_datagram_crosses(
        p,
        [&] {
          p.loop.set_timer(vt_us(100), [&] {
            for (std::uint32_t i = 0; i < 100; ++i) {
              p.loop.sendv(p.sa, be32_frame(i));
            }
          });
        },
        [] { return 100u; });
  }
  {
    SCOPED_TRACE("tx faults: dup, corrupt, truncate, delay");
    CountedPair p(default_backend());
    resil::FaultConfig fc;
    fc.dup_prob = 0.2;
    fc.corrupt_prob = 0.2;
    fc.truncate_prob = 0.2;
    fc.delay_jitter = vt_ms(2);
    p.loop.set_fault(p.sa, fc, /*seed=*/9);
    const resil::FaultStats& fs =
        p.loop.fault(p.sa)->stats(resil::FaultSocket::Dir::kTx);
    expect_every_datagram_crosses(
        p,
        [&] {
          for (std::uint32_t i = 0; i < 10; ++i) {
            p.loop.sendv(p.sa, be32_frame(i));
          }
          p.loop.set_timer(vt_us(100), [&] {
            for (std::uint32_t i = 10; i < 60; ++i) {
              p.loop.sendv(p.sa, be32_frame(i));
            }
          });
        },
        // Nothing is dropped: all 60 datagrams and every duplicate
        // arrive, mutated or not.
        [&] { return 60 + fs.duplicated; });
    EXPECT_EQ(fs.offered, 60u);
    EXPECT_EQ(fs.dropped, 0u);
    EXPECT_GT(fs.duplicated, 0u);
    EXPECT_GT(fs.corrupted, 0u);
    EXPECT_GT(fs.truncated, 0u);
    EXPECT_GT(fs.delayed, 0u);
  }
  {
    SCOPED_TRACE("clamped pushback");
    CountedPair p(std::make_unique<ClampingSendBackend>());
    expect_every_datagram_crosses(
        p,
        [&] {
          p.loop.sendv(p.sa, be32_frame(100));
          p.loop.set_timer(vt_us(100), [&] {
            for (std::uint32_t i = 0; i < 12; ++i) {
              p.loop.sendv(p.sa, be32_frame(i));
            }
          });
        },
        [] { return 13u; });
  }
}

TEST(RealBatch, RecvBatchStraddlesTimerDeadline) {
  REQUIRE_SOCKETS();
  Pair p;
  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });

  // A timer due almost immediately, then a 200-datagram burst already
  // sitting in the receive queue when the loop starts: the recvmmsg
  // batches straddle the deadline. The batch in flight completes, the
  // timer fires between batches with bounded lag, and nothing is lost.
  Vt fired_at = -1;
  p.loop.set_timer(vt_ms(1), [&] { fired_at = p.loop.now(); });
  for (std::uint32_t i = 0; i < 200; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  const std::uint64_t recycled0 =
      net::batch_counters().rx_buf_recycled.value();
  ASSERT_TRUE(p.loop.run_until(
      [&] { return got.size() >= 200 && fired_at >= 0; }, vt_s(10)));
  for (std::uint32_t i = 0; i < 200; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GE(fired_at, vt_ms(1));
  EXPECT_LT(fired_at, vt_ms(1) + vt_ms(200));  // batches never starve timers

  // A second burst on the same loop must recycle receive chunks instead of
  // allocating per datagram: the first run's buffers were dispatched and
  // released (the MessagePool keeps no chunk references), so this drain's
  // prepare finds them unique. (The first burst alone can legally complete
  // inside a single drain round — packing folds 200 tiny messages into a
  // couple of datagrams — so it proves nothing here.)
  for (std::uint32_t i = 200; i < 220; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= 220; }, vt_s(10)));
  for (std::uint32_t i = 200; i < 220; ++i) EXPECT_EQ(got[i], i);
  EXPECT_GT(net::batch_counters().rx_buf_recycled.value(), recycled0);
}

TEST(RealBatch, FallbackBackendDelivers) {
  REQUIRE_SOCKETS();
  Pair p;
  p.loop.set_batch_backend(net::make_fallback_backend());
  EXPECT_STREQ(p.loop.batch_backend_name(), "fallback");
  EXPECT_EQ(net::batch_counters().fallback_active.value(), 1);

  int done = 0;
  std::vector<std::uint8_t> ping(8, 7);
  p.b.on_deliver([&](std::span<const std::uint8_t> d) { p.b.send(d); });
  p.a.on_deliver([&](std::span<const std::uint8_t>) {
    if (++done < 20) p.a.send(ping);
  });
  p.a.send(ping);
  ASSERT_TRUE(p.loop.run_until([&] { return done >= 20; }, vt_s(10)));
  EXPECT_EQ(done, 20);
}

TEST(RealBatch, DisabledBatchingStillDelivers) {
  REQUIRE_SOCKETS();
  Pair p;
  net::BatchConfig cfg;
  cfg.recv_batch = 1;  // the bench_syscall baseline: 1 syscall per datagram
  cfg.send_train = 1;
  p.loop.set_batch_config(cfg);

  std::vector<std::uint32_t> got;
  p.b.on_deliver([&](std::span<const std::uint8_t> d) {
    ASSERT_EQ(d.size(), 4u);
    got.push_back(load_be32(d.data()));
  });
  for (std::uint32_t i = 0; i < 50; ++i) {
    std::uint8_t buf[4];
    store_be32(buf, i);
    p.a.send(std::span<const std::uint8_t>(buf, 4));
  }
  ASSERT_TRUE(p.loop.run_until([&] { return got.size() >= 50; }, vt_s(10)));
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

// make_pa writes the given addresses into the bottom layer of whatever
// spec the config carries, so the first frame's conn-ident names them.
TEST(RealUdp, MakePaAddressesTheSpecsBottom) {
  REQUIRE_SOCKETS();
  RealLoop loop;
  RealEndpoint a{loop};
  const int sink = loop.open_udp(0);
  ASSERT_GE(sink, 0);
  a.connect_to(loop.port(sink));
  std::vector<std::vector<std::uint8_t>> frames;
  loop.on_frame(sink, [&](WireFrame f, Vt) { frames.push_back(f.flatten()); });

  PaConfig cfg;
  cfg.costs = CostModel::zero();
  cfg.cookie_seed = 1;
  cfg.stack.spec = StackSpec{}
                       .add(LayerSpec::seq_layer())
                       .add(LayerSpec::window_layer({}))
                       .add(LayerSpec::bottom_layer({}));
  a.make_pa(cfg, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
  a.send(std::vector<std::uint8_t>{1, 2, 3});
  ASSERT_TRUE(loop.run_until([&] { return !frames.empty(); }, vt_s(5)));

  auto* pa = dynamic_cast<PaEngine*>(&a.engine());
  ASSERT_NE(pa, nullptr);
  DecodedFrame d =
      decode_pa_frame(frames[0], pa->stack().registry(), pa->layout());
  ASSERT_TRUE(d.valid) << d.error;
  ASSERT_TRUE(d.conn_ident_present);
  std::vector<std::uint64_t> src, dst;
  for (const DecodedField& f : d.fields) {
    if (f.name == "src_addr") src.push_back(f.value);
    if (f.name == "dst_addr") dst.push_back(f.value);
  }
  EXPECT_EQ(src, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(dst, (std::vector<std::uint64_t>{5, 6, 7, 8}));
}

TEST(RealUdp, GarbageDatagramsAreDropped) {
  REQUIRE_SOCKETS();
  Pair p;
  int delivered = 0;
  p.b.on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });

  // Blast raw garbage at B's port from a third socket.
  RealLoop attacker_loop;
  int s = attacker_loop.open_udp(0);
  ASSERT_GE(s, 0);
  attacker_loop.set_peer(s, p.b.local_port());
  std::vector<std::uint8_t> junk(64, 0xee);
  for (int i = 0; i < 20; ++i) attacker_loop.sendv(s, WireFrame::adopt(junk));
  // A legitimate message must still get through.
  std::vector<std::uint8_t> msg{9, 9, 9};
  p.a.send(msg);
  ASSERT_TRUE(p.loop.run_until([&] { return delivered >= 1; }, vt_s(5)));
  EXPECT_EQ(delivered, 1);
  const DropCounters& drops = p.b.router().stats().drops;
  EXPECT_GT(drops[DropReason::kUnknownCookie] +
                drops[DropReason::kNoIdentMatch] +
                drops[DropReason::kMalformedPreamble],
            0u);
}

}  // namespace
}  // namespace pa
