// The kernel-boundary batch I/O seam.
//
// RealLoop's one send path is a per-socket train flushed through
// send_batch; its one receive path drains a ready socket through
// recv_batch. Paper §3.4 packs messages above the stack to amortize a
// fixed per-crossing cost over many messages; this seam does the same at
// the kernel boundary, the modern analogue of the paper's U-Net substrate
// and of Laminar's batched doorbells.
//
// Two backends implement it:
//   - MmsgBackend ("mmsg"): recvmmsg/sendmmsg, Linux. The loop's default.
//   - FallbackBackend ("fallback"): a recvmsg/sendmsg loop with identical
//     semantics. The loop uses it when the platform has no mmsg calls and
//     demotes to it when the kernel answers ENOSYS; tests wrap it to force
//     partial completions.
//
// Contract (modelled on sendmmsg's own semantics so the mmsg backend is a
// thin shim):
//   - recv_batch(fd, slots, n): drain up to n datagrams in as few syscalls
//     as the backend manages. Returns the number received (0 < k <= n), or
//     -1 with errno (EAGAIN/EWOULDBLOCK = nothing to read). Each filled
//     slot's `len` is set; datagrams longer than `cap` are truncated by the
//     kernel (callers size slots at 64 KiB, the UDP maximum).
//   - send_batch(fd, items, n): submit n datagrams. Returns the number
//     accepted by the kernel (possibly < n: partial completion — the caller
//     must keep the remainder queued, not drop it), or -1 with errno if the
//     *first* datagram failed. EINTR is retried internally.
//
// Backends count every kernel crossing in net_batch_syscalls_total; the
// caller owns every policy decision (requeue, shed, fault injection).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace pa::net {

/// One receive slot: a writable buffer the backend fills with one datagram.
struct RxSlot {
  std::uint8_t* data = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;  // filled by recv_batch
};

/// One outgoing datagram: a borrowed gather list plus its destination.
struct TxDatagram {
  sockaddr_in dst{};
  const iovec* iov = nullptr;
  std::size_t iovlen = 0;
  std::size_t bytes = 0;
};

class BatchIoBackend {
 public:
  virtual ~BatchIoBackend() = default;
  virtual const char* name() const = 0;
  virtual int recv_batch(int fd, RxSlot* slots, std::size_t n) = 0;
  virtual int send_batch(int fd, const TxDatagram* items, std::size_t n) = 0;
};

/// nullptr when the platform has no recvmmsg/sendmmsg (the caller falls
/// back). A kernel that *compiles* but rejects the calls at runtime
/// (ENOSYS) is handled by RealLoop swapping backends on first use.
std::unique_ptr<BatchIoBackend> make_mmsg_backend();
std::unique_ptr<BatchIoBackend> make_fallback_backend();

/// Batching knobs on the real loop (docs/PERFORMANCE.md, "Kernel boundary").
/// Configure before RealLoop::run_until. {recv_batch = 1, send_train = 1}
/// is the one-syscall-per-datagram loop (the bench_syscall baseline).
struct BatchConfig {
  /// recvmmsg slots per crossing: the most datagrams one wakeup ingests per
  /// syscall. Bigger batches amortize harder but hold the dispatch loop
  /// longer before timers run again.
  std::size_t recv_batch = 32;
  /// Per-socket send-train length that forces an early flush inside
  /// run_until(); trains also flush at the end of every poll round (and at
  /// once outside run_until()), so this only bounds burst memory.
  std::size_t send_train = 32;
};

/// Per-slot receive buffer size. 64 KiB covers any UDP datagram; smaller
/// buffers save memory but silently truncate larger datagrams.
inline constexpr std::size_t kRecvSlotBytes = 65536;

/// Process-global kernel-boundary counters (obs registry; catalogued in
/// docs/OBSERVABILITY.md under `net_batch_*`).
struct BatchCounters {
  obs::Counter& syscalls;        // every kernel I/O crossing (poll included)
  obs::Counter& wakeups;         // poll() returns with I/O ready
  obs::Counter& rx_batches;      // recv_batch calls that returned datagrams
  obs::Counter& tx_batches;      // send_batch calls that accepted datagrams
  obs::Counter& tx_partial;      // send_batch accepted k < n (rest requeued)
  obs::Counter& rx_buf_recycled; // receive buffers reused from the cache
  obs::Counter& rx_buf_fresh;    // receive buffers freshly allocated
  obs::Gauge& fallback_active;   // 1 when the fallback backend is in use
  obs::LatencyHistogram& rx_fill;         // datagrams per receive batch
  obs::LatencyHistogram& tx_fill;         // datagrams per send batch
  obs::LatencyHistogram& msgs_per_wakeup; // datagrams ingested per wakeup
};

BatchCounters& batch_counters();

}  // namespace pa::net
