#include "net/real_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#ifdef __linux__
#include <linux/sock_diag.h>  // SK_MEMINFO_*
#endif

#include "obs/metrics.h"
#include "obs/trace_ring.h"

namespace pa {
namespace {

Vt steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LoopCounters {
  obs::Counter& tx;
  obs::Counter& rx;
  obs::Counter& timers;
  obs::Counter& idle;
  obs::Counter& tx_backpressure;
  obs::Counter& tx_refused;
  obs::Counter& tx_errors;
  obs::Counter& rx_refused;
  obs::Counter& rx_errors;
  obs::Counter& rx_overflow;
  obs::Counter& timers_cancelled;
  obs::Counter& faults_injected;
  obs::LatencyHistogram& wakeup_lag;
};

LoopCounters& loop_counters() {
  static LoopCounters c{
      obs::registry().counter("net_loop_datagrams_tx_total",
                              "UDP datagrams sent by the real-time loop"),
      obs::registry().counter("net_loop_datagrams_rx_total",
                              "UDP datagrams received by the real-time loop"),
      obs::registry().counter("net_loop_timers_fired_total",
                              "timers fired by the real-time loop"),
      obs::registry().counter("net_loop_idle_polls_total",
                              "idle poll() rounds (batched flush points)"),
      obs::registry().counter(
          "net_loop_tx_backpressure_total",
          "train flushes pushed back on EAGAIN/ENOBUFS, plus datagrams "
          "shed from an overflowing train"),
      obs::registry().counter(
          "net_loop_tx_refused_total",
          "sends refused by ICMP port-unreachable (peer gone)"),
      obs::registry().counter("net_loop_tx_errors_total",
                              "sends failed with an unexpected errno"),
      obs::registry().counter(
          "net_loop_rx_refused_total",
          "ICMP port-unreachable errors consumed on receive"),
      obs::registry().counter("net_loop_rx_errors_total",
                              "receives failed with an unexpected errno"),
      obs::registry().counter(
          "net_loop_rx_overflow_total",
          "datagrams the kernel dropped on a full receive buffer"),
      obs::registry().counter("net_loop_timers_cancelled_total",
                              "timers cancelled before firing"),
      obs::registry().counter(
          "net_loop_faults_injected_total",
          "datagrams the fault injector dropped, mutated, delayed or "
          "duplicated"),
      obs::registry().histogram("net_loop_wakeup_lag_ns",
                                "timer wakeup lag: fire time minus deadline",
                                "ns"),
  };
  return c;
}

sockaddr_in loopback_dst(std::uint16_t port) {
  sockaddr_in peer{};
  peer.sin_family = AF_INET;
  peer.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  peer.sin_port = htons(port);
  return peer;
}

}  // namespace

RealLoop::RealLoop() : t0_(steady_ns()) {}

RealLoop::~RealLoop() {
  for (Socket& s : socks_) {
    if (s.fd >= 0) ::close(s.fd);
  }
}

int RealLoop::open_udp(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  // A refused or clamped request still leaves a working socket; the
  // read-back records what the kernel actually granted.
  int rcvbuf = kRcvBufBytes;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  socklen_t rcvbuf_len = sizeof rcvbuf;
  if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &rcvbuf_len) != 0) {
    rcvbuf = 0;
  }
  Socket s;
  s.fd = fd;
  s.bound_port = ntohs(addr.sin_port);
  s.rcvbuf_bytes = rcvbuf;
  socks_.push_back(std::move(s));
  return static_cast<int>(socks_.size() - 1);
}

std::uint16_t RealLoop::port(int sock) const {
  return socks_.at(sock).bound_port;
}

int RealLoop::rcvbuf_bytes(int sock) const {
  return socks_.at(sock).rcvbuf_bytes;
}

void RealLoop::set_peer(int sock, std::uint16_t peer_port) {
  socks_.at(sock).peer_port = peer_port;
}

resil::FaultSocket& RealLoop::injector(int sock, std::uint64_t seed) {
  Socket& s = socks_.at(sock);
  if (!s.fault) s.fault = std::make_unique<resil::FaultSocket>(seed);
  return *s.fault;
}

void RealLoop::set_fault(int sock, const resil::FaultConfig& cfg,
                         std::uint64_t seed) {
  resil::FaultSocket& f = injector(sock, seed);
  f.set_config(resil::FaultSocket::Dir::kTx, cfg);
  f.reseed(resil::FaultSocket::Dir::kTx, seed);
}

void RealLoop::set_fault_rx(int sock, const resil::FaultConfig& cfg,
                            std::uint64_t seed) {
  resil::FaultSocket& f = injector(sock, seed);
  f.set_config(resil::FaultSocket::Dir::kRx, cfg);
  f.reseed(resil::FaultSocket::Dir::kRx, seed);
}

resil::FaultSocket* RealLoop::fault(int sock) {
  return socks_.at(sock).fault.get();
}

void RealLoop::set_batch_config(const net::BatchConfig& cfg) {
  batch_cfg_ = cfg;
  if (batch_cfg_.recv_batch == 0) batch_cfg_.recv_batch = 1;
  if (batch_cfg_.send_train == 0) batch_cfg_.send_train = 1;
  rx_cache_.clear();  // resize lazily to the new batch geometry
}

void RealLoop::set_batch_backend(std::unique_ptr<net::BatchIoBackend> b) {
  backend_ = std::move(b);
  net::batch_counters().fallback_active.set(
      std::strcmp(backend_->name(), "mmsg") == 0 ? 0 : 1);
}

const char* RealLoop::batch_backend_name() { return backend().name(); }

net::BatchIoBackend& RealLoop::backend() {
  if (!backend_) {
    auto b = net::make_mmsg_backend();
    set_batch_backend(b ? std::move(b) : net::make_fallback_backend());
  }
  return *backend_;
}

void RealLoop::sendv(int sock, WireFrame frame) {
  Socket& s = socks_.at(sock);
  if (!s.fault) {
    // The train holds references, not copies; the chunk contract freezes
    // the referenced bytes until the flush drops them.
    s.train.push_back(std::move(frame));
    flush_if_due(s);
    return;
  }
  // The tx fault lane judges each datagram once, here, in send order.
  release(sock, resil::FaultSocket::Dir::kTx, std::move(frame),
          [this, sock](WireFrame f) {
            Socket& ds = socks_[static_cast<std::size_t>(sock)];
            ds.train.push_back(std::move(f));
            flush_if_due(ds);
          });
}

template <typename Emit>
void RealLoop::release(int sock, resil::FaultSocket::Dir d, WireFrame frame,
                       Emit emit) {
  const resil::FaultVerdict v =
      socks_[static_cast<std::size_t>(sock)].fault->judge(d, frame.size());
  if (v.drop || v.corrupt || v.truncate_to != 0 || v.delay > 0 ||
      v.duplicate) {
    loop_counters().faults_injected.inc();
  }
  if (v.drop) return;
  resil::mutate(v, frame);
  // A delayed datagram re-enters through the timer heap, reordered against
  // later ones, without a second verdict.
  auto emit_after = [&](VtDur delay, WireFrame f) {
    if (delay == 0) {
      emit(std::move(f));
    } else {
      set_timer(delay, [emit, f = std::move(f)]() mutable {
        emit(std::move(f));
      });
    }
  };
  // The duplicate is a private copy: receivers may write headers in place.
  WireFrame dup = v.duplicate ? frame.deep_copy() : WireFrame{};
  emit_after(v.delay, std::move(frame));
  if (v.duplicate) emit_after(v.delay + v.dup_delay, std::move(dup));
}

void RealLoop::flush_if_due(Socket& s) {
  if (!in_dispatch_ || s.train.size() >= batch_cfg_.send_train) {
    flush_train(s);
  }
}

void RealLoop::flush_train(Socket& s) {
  if (s.train.empty()) return;
  auto& bc = net::batch_counters();
  if (governor_) governor_->report_net_train(queued_train_depth());

  // Build the gather lists. iovec storage must stay stable across the
  // send_batch call, so every slice goes into one arena sized up front.
  const sockaddr_in dst = loopback_dst(s.peer_port);
  std::size_t total_slices = 0;
  for (const WireFrame& f : s.train) total_slices += f.num_slices();
  tx_iovs_.clear();
  tx_iovs_.reserve(total_slices);
  tx_items_.clear();
  for (const WireFrame& f : s.train) {
    const std::size_t start = tx_iovs_.size();
    for (const Slice& sl : f.slices()) {
      if (sl.len == 0) continue;
      // iovec wants a mutable void*; the kernel only reads.
      tx_iovs_.push_back(iovec{
          const_cast<std::uint8_t*>(sl.chunk->data() + sl.off), sl.len});
    }
    net::TxDatagram d;
    d.dst = dst;
    d.iov = tx_iovs_.data() + start;
    d.iovlen = tx_iovs_.size() - start;
    d.bytes = f.size();
    tx_items_.push_back(d);
  }

  std::size_t off = 0;
  while (off < tx_items_.size()) {
    const std::size_t want = tx_items_.size() - off;
    const Vt t0 = now();
    int rc = backend().send_batch(s.fd, tx_items_.data() + off, want);
    if (rc < 0) {
      if (errno == ENOSYS) {
        set_batch_backend(net::make_fallback_backend());
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        // Kernel pushed back on the first datagram: keep the remainder
        // queued and retry next round (a fast re-poll, not a shed).
        loop_counters().tx_backpressure.inc();
        break;
      }
      if (errno == ECONNREFUSED) {
        // ICMP port-unreachable from a dead peer: the peer restarting is
        // an expected chaos event, not a fault. It consumed the datagram.
        loop_counters().tx_refused.inc();
        ++off;
        continue;
      }
      loop_counters().tx_errors.inc();
      ++off;
      continue;
    }
    loop_counters().tx.inc(static_cast<std::uint64_t>(rc));
    bc.tx_batches.inc();
    bc.tx_fill.record(static_cast<std::uint64_t>(rc));
    obs::span(obs::SpanKind::kNetBatch, t0,
              static_cast<std::uint32_t>(now() - t0),
              static_cast<std::uint32_t>(rc));
    if (static_cast<std::size_t>(rc) < want) bc.tx_partial.inc();
    off += static_cast<std::size_t>(rc);
    if (rc == 0) break;  // defensive: avoid spinning on a zero-progress backend
  }

  // Accepted datagrams leave the train; the rest stay queued, in order,
  // for the next flush.
  s.train.erase(s.train.begin(),
                s.train.begin() + static_cast<std::ptrdiff_t>(off));

  // Overflow guard: a train the kernel will not drain cannot grow without
  // bound. Shed the oldest beyond 4x the configured length (UDP semantics;
  // retransmission recovers) and count the pressure.
  const std::size_t cap = batch_cfg_.send_train * 4;
  while (s.train.size() > cap) {
    s.train.pop_front();
    loop_counters().tx_backpressure.inc();
  }
}

void RealLoop::flush_all_trains() {
  for (Socket& s : socks_) flush_train(s);
}

void RealLoop::count_rx_overflow() {
#ifdef __linux__
  // Loopback drops happen inside the sender's syscall, so the count read
  // here is exact for everything sent before this call.
  for (Socket& s : socks_) {
    std::uint32_t mem[SK_MEMINFO_VARS];
    socklen_t len = sizeof mem;
    net::batch_counters().syscalls.inc();
    if (::getsockopt(s.fd, SOL_SOCKET, SO_MEMINFO, mem, &len) != 0 ||
        len < sizeof mem) {
      continue;
    }
    // Unsigned subtraction survives the kernel's 32-bit counter wrapping.
    loop_counters().rx_overflow.inc(mem[SK_MEMINFO_DROPS] - s.kernel_drops);
    s.kernel_drops = mem[SK_MEMINFO_DROPS];
  }
#endif  // elsewhere the kernel does not report the drops
}

std::size_t RealLoop::queued_train_depth() const {
  std::size_t depth = 0;
  for (const Socket& s : socks_) depth += s.train.size();
  return depth;
}

void RealLoop::on_frame(int sock, FrameHandler handler) {
  socks_.at(sock).handler = std::move(handler);
}

Vt RealLoop::now() const { return steady_ns() - t0_; }

std::uint64_t RealLoop::set_timer(VtDur delay, std::function<void()> fn) {
  const std::uint64_t id = timer_seq_++;
  timers_.push(Timer{now() + delay, id, std::move(fn)});
  live_timers_.insert(id);
  return id;
}

bool RealLoop::cancel_timer(std::uint64_t id) {
  if (live_timers_.erase(id) == 0) return false;
  // Lazy deletion: the heap entry stays; run_until skips it at the pop.
  cancelled_timers_.insert(id);
  loop_counters().timers_cancelled.inc();
  return true;
}

void RealLoop::drain_deferred() {
  while (!deferred_.empty()) {
    std::function<void()> fn = std::move(deferred_.front());
    deferred_.pop_front();
    fn();  // may defer() again; the loop re-checks
  }
}

void RealLoop::prepare_rx_slots(std::size_t n) {
  if (rx_cache_.size() < n) rx_cache_.resize(n);
  if (rx_slots_.size() < n) rx_slots_.resize(n);
  auto& bc = net::batch_counters();
  for (std::size_t i = 0; i < n; ++i) {
    ChunkRef& c = rx_cache_[i];
    if (c && c->unique()) {
      bc.rx_buf_recycled.inc();
    } else {
      // The previous tenant (an in-flight frame, the PA recv queue, a
      // reassembly buffer) still references this chunk — or the slot is
      // new. Leave the old chunk to its holders and allocate fresh. Left
      // unzeroed: a frame slices only the bytes the kernel wrote.
      c = ChunkRef::make_uninit(net::kRecvSlotBytes);
      bc.rx_buf_fresh.inc();
    }
    rx_slots_[i] = net::RxSlot{c->data(), net::kRecvSlotBytes, 0};
  }
}

std::size_t RealLoop::drain_socket(std::size_t i,
                                   const std::function<bool()>& done) {
  Socket& s = socks_[i];
  auto& bc = net::batch_counters();
  const std::size_t batch = batch_cfg_.recv_batch;
  // Bound the per-socket drain so a firehose socket cannot starve timers
  // and its siblings: at most 4 full batches per wakeup, then re-poll.
  const std::size_t max_rounds = 4;
  std::size_t ingested = 0;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    prepare_rx_slots(batch);
    const Vt t0 = now();
    int rc = backend().recv_batch(s.fd, rx_slots_.data(), batch);
    if (rc < 0) {
      if (errno == ENOSYS) {
        set_batch_backend(net::make_fallback_backend());
        continue;
      }
      if (errno == ECONNREFUSED) {
        // Consume the queued ICMP error so the socket unblocks; keep
        // draining — real datagrams may sit behind it.
        loop_counters().rx_refused.inc();
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        loop_counters().rx_errors.inc();
      }
      break;
    }
    const std::size_t got = static_cast<std::size_t>(rc);
    bc.rx_batches.inc();
    bc.rx_fill.record(got);
    loop_counters().rx.inc(got);
    ingested += got;
    obs::span(obs::SpanKind::kNetBatch, t0,
              static_cast<std::uint32_t>(now() - t0),
              static_cast<std::uint32_t>(got));

    // Hand the whole batch to the engine back-to-back: prediction stays
    // hot across the batch, and deferred post-processing (§3.1) piles up
    // and drains once below instead of once per datagram.
    if (s.handler) {
      const Vt at = now();
      for (std::size_t j = 0; j < got; ++j) {
        WireFrame f;
        f.append(Slice{rx_cache_[j], 0, rx_slots_[j].len});
        if (!s.fault) {
          s.handler(std::move(f), at);
          continue;
        }
        // Receive-side fault lane: judged at ingest, before the handler.
        // The lane's Rng is independent of tx, so judging here never
        // perturbs a send-side schedule (resil/fault_socket.h).
        const int si = static_cast<int>(i);
        release(si, resil::FaultSocket::Dir::kRx, std::move(f),
                [this, si](WireFrame g) {
                  Socket& ds = socks_[static_cast<std::size_t>(si)];
                  if (ds.handler) ds.handler(std::move(g), now());
                });
      }
      drain_deferred();
    }

    // Receive-drain saturation: consecutive full batches mean one wakeup
    // is no longer enough to empty the socket — the wire is winning.
    if (got == batch) {
      ++consecutive_full_;
      if (governor_) {
        const double sat = 0.25 * static_cast<double>(consecutive_full_);
        governor_->report_net_drain(sat > 1.0 ? 1.0 : sat);
      }
    } else {
      consecutive_full_ = 0;
      if (governor_) governor_->report_net_drain(0.0);
      break;  // socket drained
    }
    if (done()) break;
  }
  return ingested;
}

bool RealLoop::run_loop(const std::function<bool()>& done, VtDur budget) {
  const Vt deadline = now() + budget;
  std::vector<pollfd> pfds;
  auto& bc = net::batch_counters();

  while (!done()) {
    if (now() >= deadline) return false;

    // Fire due timers (popped before they run — a timer fn may arm new
    // timers).
    while (!timers_.empty() && timers_.top().at <= now()) {
      const Timer& top = timers_.top();
      if (cancelled_timers_.erase(top.seq) > 0) {
        timers_.pop();
        continue;
      }
      const std::function<void()> fn = top.fn;
      const VtDur lag = now() - top.at;
      live_timers_.erase(top.seq);
      timers_.pop();
      loop_counters().wakeup_lag.record(lag);
      if (governor_) governor_->report_loop_lag(lag);
      const Vt t0 = now();
      fn();
      loop_counters().timers.inc();
      obs::span(obs::SpanKind::kTimerFire, t0,
                static_cast<std::uint32_t>(now() - t0));
      drain_deferred();
      if (done()) return true;
    }

    // End-of-round flush: everything parked by timer callbacks and the
    // previous round's dispatch leaves before the loop sleeps.
    flush_all_trains();

    int timeout_ms = 1;
    if (!timers_.empty()) {
      VtDur until = timers_.top().at - now();
      timeout_ms = static_cast<int>(until / 1'000'000);
      if (timeout_ms < 0) timeout_ms = 0;
      if (timeout_ms > 10) timeout_ms = 10;
    }
    if (queued_train_depth() > 0 && timeout_ms > 1) {
      // The kernel pushed back on a flush: re-poll soon to retry the train.
      timeout_ms = 1;
    }

    // Handlers and timers may have opened sockets since the last round.
    pfds.resize(socks_.size());
    for (std::size_t i = 0; i < socks_.size(); ++i) {
      pfds[i].fd = socks_[i].fd;
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
    }
    int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    bc.syscalls.inc();
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) {
      // Idle: nothing to read, no timer due. Batched idle-flush point.
      loop_counters().idle.inc();
      if (idle_hook_) idle_hook_();
      drain_deferred();
      flush_all_trains();
      continue;
    }
    bc.wakeups.inc();
    std::size_t ingested = 0;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLERR))) continue;
      ingested += drain_socket(i, done);
    }
    if (ingested > 0) bc.msgs_per_wakeup.record(ingested);
    // Responses provoked by this wakeup's batches leave now, in trains —
    // not one syscall per reply.
    flush_all_trains();
  }
  return true;
}

bool RealLoop::run_until(const std::function<bool()>& done, VtDur budget) {
  in_dispatch_ = true;
  const bool ok = run_loop(done, budget);
  in_dispatch_ = false;
  // No datagram stays parked across calls: drain the trains even when the
  // budget expired mid-round.
  flush_all_trains();
  count_rx_overflow();
  return ok;
}

}  // namespace pa
