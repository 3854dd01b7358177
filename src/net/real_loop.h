// A small real-time event loop over UDP sockets.
//
// The simulation harness (horus/world.h) runs the engines in virtual time;
// this loop runs the very same engines over real localhost UDP sockets and
// the wall clock — no cost model, no simulated network. It exists for two
// reasons: to prove the library is a usable transport outside the
// simulator, and to measure the *actual* nanosecond cost of the PA fast
// paths in C++ (examples/udp_pingpong.cpp).
//
// Single-threaded: poll(2) over the registered sockets plus a timer heap,
// every handler, timer and deferred closure running on the thread inside
// run_until(). The loop has no locks, so every entry point — send, timers,
// defer, configuration — must be called from the thread that owns the loop
// (the one that calls run_until(), or sets it up before the first call).
// Engines driven by the loop inherit the same contract: post-processing
// goes through defer() and runs on this thread when it is next idle.
//
// Kernel-boundary batching (net/batch_io.h; docs/INTERNALS.md, "The kernel
// boundary"): one wakeup drains each ready socket with recvmmsg(2) into
// receive buffers recycled from a chunk cache (each datagram becomes a
// zero-copy WireFrame slice — no ingest memcpy) and hands the whole batch
// to the frame handler back-to-back, with deferred post-processing drained
// once per batch so the §3.1 amortization spans the batch.
//
// One way out: every datagram joins its socket's send train and leaves
// through the backend's send_batch. Inside run_until() (a frame handler,
// timer or deferred closure) the train flushes in one sendmmsg(2) at the
// end of the round, or earlier when it reaches send_train; outside
// run_until() it flushes at once, so such a send still costs one kernel
// crossing. Partial completions (the kernel accepts k < n) keep the
// remainder queued for the next flush. On kernels without
// recvmmsg/sendmmsg the loop swaps in a per-datagram fallback backend with
// identical semantics.
//
// Receive buffers (docs/INTERNALS.md, "The kernel boundary"): every
// socket asks for kRcvBufBytes of SO_RCVBUF at open, sized so one full
// window of the largest frames fits, and rcvbuf_bytes() reports what the
// kernel granted (net.core.rmem_max may clamp it). Datagrams the kernel
// still drops on a full buffer never reach user space; when run_until()
// returns, the loop reads each socket's drop count (SO_MEMINFO) and adds
// the growth to net_loop_rx_overflow_total.
//
// Error handling (overload must degrade, never abort): EINTR is retried;
// EAGAIN/ENOBUFS keeps the train queued as counted backpressure and retries
// next round, shedding the oldest entries only when the train overflows 4x
// the configured length; ECONNREFUSED from ICMP port-unreachable is
// tolerated on both directions; anything else is counted and survived.
//
// Fault injection (src/resil/fault_socket.h): set_fault() and
// set_fault_rx() arm a deterministic, seed-reproducible injector on a
// socket's send and receive sides — drop, duplicate, corrupt, truncate,
// delay/reorder, judged and applied by the same routines as the simulated
// network's links — so the chaos scenarios run against real sockets. Each
// datagram is judged once: on send, in send order, as it joins the train;
// on receive, at ingest, before the handler. Survivors and mutated copies
// travel on like any other datagram. A delayed datagram re-enters through
// the timer heap when it comes due, without a second verdict.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "buf/wire_frame.h"
#include "net/batch_io.h"
#include "resil/fault_socket.h"
#include "resil/governor.h"
#include "util/types.h"

namespace pa {

class RealLoop {
 public:
  /// Receive handler: one datagram as a zero-copy WireFrame (a single slice
  /// into a loop-owned receive chunk; flatten() for a flat copy). The chunk
  /// is recycled once every reference from the frame/message drops.
  using FrameHandler = std::function<void(WireFrame frame, Vt at)>;

  RealLoop();
  ~RealLoop();
  RealLoop(const RealLoop&) = delete;
  RealLoop& operator=(const RealLoop&) = delete;

  /// SO_RCVBUF requested for every socket. The most a paper-stack socket
  /// has in flight is one window of frames of at most 8 KiB (the frag
  /// threshold of StackSpec::paper() and kMaxPackBytes both cap a frame
  /// there), and the widest window in use is 64 frames (bench_syscall and
  /// wallbench's stream; the paper's default is 16). On loopback the
  /// kernel charges each such datagram about 16.6 KB of skb truesize, so
  /// a 64-frame window costs about 1.1 MB. Linux doubles the request for
  /// its bookkeeping overhead: 1 MiB is granted 2 MiB where
  /// net.core.rmem_max allows it (the kernel default of 212992 bytes
  /// holds only 12 such datagrams).
  static constexpr int kRcvBufBytes = 1 << 20;

  /// Open a UDP socket bound to 127.0.0.1:port (port 0 = ephemeral) with
  /// a kRcvBufBytes receive buffer. Returns a socket index, or -1 on
  /// failure.
  int open_udp(std::uint16_t port = 0);

  /// The port a socket was actually bound to.
  std::uint16_t port(int sock) const;

  /// The receive buffer the kernel granted (SO_RCVBUF read back at open):
  /// twice the request, clamped at twice net.core.rmem_max.
  int rcvbuf_bytes(int sock) const;

  /// Point a socket's sends at 127.0.0.1:peer_port.
  void set_peer(int sock, std::uint16_t peer_port);

  /// Arm (or re-arm) the fault injector's send lane on a socket. The lane
  /// restarts its schedule from `seed` (resil/fault_socket.h); the receive
  /// lane is untouched. Reconfigure without a restart via
  /// fault()->set_config().
  void set_fault(int sock, const resil::FaultConfig& cfg,
                 std::uint64_t seed = 1);
  /// Arm (or re-arm) the receive-side fault lane: datagrams are
  /// judged at ingest, after recvmmsg and before the frame handler —
  /// drop, duplicate, corrupt, truncate, or delay (a delayed datagram
  /// re-enters through the timer heap, reordered against later arrivals).
  /// The lane restarts its schedule from `seed`, exactly as set_fault()
  /// restarts tx; the tx lane is untouched (per-lane Rng,
  /// resil/fault_socket.h). If no injector exists yet one is created with
  /// a fault-free tx lane.
  void set_fault_rx(int sock, const resil::FaultConfig& cfg,
                    std::uint64_t seed = 1);
  /// The injector armed on a socket (nullptr when none).
  resil::FaultSocket* fault(int sock);

  /// Report timer wakeup lag, send-train depth and receive-drain
  /// saturation to an overload governor (nullptr to detach).
  void set_governor(resil::OverloadGovernor* g) { governor_ = g; }

  /// Reconfigure kernel-boundary batching (docs/PERFORMANCE.md). Call
  /// before run_until(); {recv_batch = 1, send_train = 1} is one syscall
  /// per datagram (the bench_syscall baseline).
  void set_batch_config(const net::BatchConfig& cfg);
  const net::BatchConfig& batch_config() const { return batch_cfg_; }

  /// Install a specific batch backend (tests install the fallback, or wrap
  /// it to force partial completions) and set net_batch_fallback_active.
  void set_batch_backend(std::unique_ptr<net::BatchIoBackend> backend);
  /// The active backend's name ("mmsg", "fallback", or a test wrapper's).
  const char* batch_backend_name();

  /// Send one datagram to the socket's peer, gathering a WireFrame's
  /// slices — the kernel assembles the datagram from the chunk chain; user
  /// space never copies the frame flat. The frame (a refcount bump per
  /// slice) joins the socket's send train: inside run_until() it leaves in
  /// the round's sendmmsg(2) flush, outside it leaves at once. An armed
  /// fault injector judges it here; a corrupted datagram copies only the
  /// flipped slice, and every datagram stays gathered.
  void sendv(int sock, WireFrame frame);

  void on_frame(int sock, FrameHandler handler);

  /// Nanoseconds since the loop was created (steady clock).
  Vt now() const;

  /// Arm a timer; returns an id usable with cancel_timer(). Callers that
  /// never cancel may ignore it.
  std::uint64_t set_timer(VtDur delay, std::function<void()> fn);

  /// Cancel a pending timer. Safe on an already-due (but not yet fired)
  /// timer; returns false if the timer already fired, was cancelled, or
  /// never existed.
  bool cancel_timer(std::uint64_t id);

  /// Run `fn` after the current dispatch completes (the engines' deferred
  /// post-processing hook).
  void defer(std::function<void()> fn) { deferred_.push_back(std::move(fn)); }

  /// Called whenever poll(2) reports the loop idle (no I/O ready), before
  /// the deferred queue is drained.
  void set_idle_hook(std::function<void()> fn) { idle_hook_ = std::move(fn); }

  /// Dispatch I/O and timers until `done` returns true or `budget` elapses.
  /// Returns true if `done` was satisfied. All send trains are flushed
  /// before returning — no datagram is left parked across calls — and the
  /// kernel's receive-overflow drops since the last call are counted.
  bool run_until(const std::function<bool()>& done, VtDur budget);

 private:
  struct Socket {
    int fd = -1;
    std::uint16_t bound_port = 0;
    std::uint16_t peer_port = 0;
    int rcvbuf_bytes = 0;
    /// The kernel's drop count (SO_MEMINFO) at the last overflow read.
    std::uint32_t kernel_drops = 0;
    FrameHandler handler;
    std::unique_ptr<resil::FaultSocket> fault;
    /// Datagrams parked for the next sendmmsg flush.
    std::deque<WireFrame> train;
  };
  struct Timer {
    Vt at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  void drain_deferred();
  net::BatchIoBackend& backend();
  /// The socket's injector, created with `seed` if it has none.
  resil::FaultSocket& injector(int sock, std::uint64_t seed);
  /// Judge a datagram on one of the socket's fault lanes and hand what
  /// survives, mutated, to `emit` — now or after its delay — followed by
  /// its duplicate, if any.
  template <typename Emit>
  void release(int sock, resil::FaultSocket::Dir d, WireFrame frame,
               Emit emit);
  /// Flush the train at once outside run_until(), or when it is full.
  void flush_if_due(Socket& s);
  /// Ensure rx chunk cache slots exist, are uniquely owned, and are sized;
  /// fills rx_slots_ for a recv_batch call of `n` datagrams.
  void prepare_rx_slots(std::size_t n);
  /// Drain one ready socket in kernel batches; returns datagrams ingested.
  std::size_t drain_socket(std::size_t i, const std::function<bool()>& done);
  /// Flush one socket's send train; leaves unaccepted datagrams queued.
  void flush_train(Socket& s);
  void flush_all_trains();
  /// Add each socket's kernel drops since the last read to
  /// net_loop_rx_overflow_total.
  void count_rx_overflow();
  std::size_t queued_train_depth() const;
  bool run_loop(const std::function<bool()>& done, VtDur budget);

  /// A deque, so a handler that opens a socket never moves the one (and
  /// the handler) it is running on.
  std::deque<Socket> socks_;
  std::function<void()> idle_hook_;
  resil::OverloadGovernor* governor_ = nullptr;
  net::BatchConfig batch_cfg_;
  std::unique_ptr<net::BatchIoBackend> backend_;
  std::vector<ChunkRef> rx_cache_;   // loop-owned recv chunks, reused if unique
  std::vector<net::RxSlot> rx_slots_;
  std::vector<iovec> tx_iovs_;          // flush_train scratch, reused
  std::vector<net::TxDatagram> tx_items_;
  std::uint32_t consecutive_full_ = 0;  // full recvmmsg batches in a row
  bool in_dispatch_ = false;  // inside run_until(): trains wait for round end
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::set<std::uint64_t> live_timers_;
  std::set<std::uint64_t> cancelled_timers_;
  std::deque<std::function<void()>> deferred_;
  std::uint64_t timer_seq_ = 0;
  Vt t0_ = 0;
};

}  // namespace pa
