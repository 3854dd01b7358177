#include "net/batch_io.h"

#include <cerrno>
#include <cstring>
#include <vector>

namespace pa::net {

BatchCounters& batch_counters() {
  auto& r = obs::registry();
  static BatchCounters c{
      r.counter("net_batch_syscalls_total",
                "kernel I/O crossings (poll, recv/send batches)"),
      r.counter("net_batch_wakeups_total",
                "poll(2) returns that reported I/O ready"),
      r.counter("net_batch_rx_batches_total",
                "recv_batch calls that returned >=1 datagram"),
      r.counter("net_batch_tx_batches_total",
                "send_batch calls that accepted >=1 datagram"),
      r.counter("net_batch_tx_partial_total",
                "send_batch partial completions (k<n; remainder requeued)"),
      r.counter("net_batch_rx_buf_recycled_total",
                "receive buffers reused from the loop's chunk cache"),
      r.counter("net_batch_rx_buf_fresh_total",
                "receive buffers freshly allocated (cache slot still shared)"),
      r.gauge("net_batch_fallback_active",
              "1 when the per-datagram fallback backend is in use"),
      r.histogram("net_batch_rx_fill", "datagrams per receive batch", "msgs"),
      r.histogram("net_batch_tx_fill", "datagrams per send batch", "msgs"),
      r.histogram("net_batch_msgs_per_wakeup",
                  "datagrams ingested per poll wakeup", "msgs"),
  };
  return c;
}

namespace {

// One recvmsg/sendmsg per datagram with the exact return contract of the
// mmsg backend: used where the platform or the kernel rules out
// recvmmsg/sendmmsg, and as the inner engine for test backends that wrap
// it to force partial completions.
class FallbackBackend final : public BatchIoBackend {
 public:
  const char* name() const override { return "fallback"; }

  int recv_batch(int fd, RxSlot* slots, std::size_t n) override {
    auto& c = batch_counters();
    std::size_t got = 0;
    while (got < n) {
      iovec iov{slots[got].data, slots[got].cap};
      msghdr mh{};
      mh.msg_iov = &iov;
      mh.msg_iovlen = 1;
      ssize_t rc;
      do {
        rc = ::recvmsg(fd, &mh, MSG_DONTWAIT);
      } while (rc < 0 && errno == EINTR);
      c.syscalls.inc();
      if (rc < 0) {
        if (got > 0) break;  // drained something before running dry
        return -1;           // errno from recvmsg (EAGAIN = nothing ready)
      }
      slots[got].len = static_cast<std::size_t>(rc);
      ++got;
    }
    return static_cast<int>(got);
  }

  int send_batch(int fd, const TxDatagram* items, std::size_t n) override {
    auto& c = batch_counters();
    std::size_t sent = 0;
    while (sent < n) {
      const TxDatagram& d = items[sent];
      msghdr mh{};
      mh.msg_name = const_cast<sockaddr_in*>(&d.dst);
      mh.msg_namelen = sizeof(d.dst);
      mh.msg_iov = const_cast<iovec*>(d.iov);
      mh.msg_iovlen = d.iovlen;
      ssize_t rc;
      do {
        rc = ::sendmsg(fd, &mh, 0);
      } while (rc < 0 && errno == EINTR);
      c.syscalls.inc();
      if (rc < 0) {
        if (sent > 0) break;  // partial completion, sendmmsg-style
        return -1;
      }
      ++sent;
    }
    return static_cast<int>(sent);
  }
};

#ifdef __linux__

// recvmmsg/sendmmsg: the whole batch is one kernel crossing. Scratch
// arrays live in the backend (single-threaded use from the loop's
// dispatch thread, like the loop itself).
class MmsgBackend final : public BatchIoBackend {
 public:
  const char* name() const override { return "mmsg"; }

  int recv_batch(int fd, RxSlot* slots, std::size_t n) override {
    ensure(n);
    for (std::size_t i = 0; i < n; ++i) {
      iovs_[i] = {slots[i].data, slots[i].cap};
      std::memset(&msgs_[i], 0, sizeof(msgs_[i]));
      msgs_[i].msg_hdr.msg_iov = &iovs_[i];
      msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    int rc;
    do {
      rc = ::recvmmsg(fd, msgs_.data(), static_cast<unsigned>(n),
                      MSG_DONTWAIT, nullptr);
    } while (rc < 0 && errno == EINTR);
    batch_counters().syscalls.inc();
    if (rc < 0) return -1;
    for (int i = 0; i < rc; ++i) slots[i].len = msgs_[i].msg_len;
    return rc;
  }

  int send_batch(int fd, const TxDatagram* items, std::size_t n) override {
    ensure(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::memset(&msgs_[i], 0, sizeof(msgs_[i]));
      msgs_[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&items[i].dst);
      msgs_[i].msg_hdr.msg_namelen = sizeof(items[i].dst);
      msgs_[i].msg_hdr.msg_iov = const_cast<iovec*>(items[i].iov);
      msgs_[i].msg_hdr.msg_iovlen = items[i].iovlen;
    }
    int rc;
    do {
      rc = ::sendmmsg(fd, msgs_.data(), static_cast<unsigned>(n), 0);
    } while (rc < 0 && errno == EINTR);
    batch_counters().syscalls.inc();
    return rc;  // k accepted, or -1 with errno for the first datagram
  }

 private:
  void ensure(std::size_t n) {
    if (msgs_.size() < n) {
      msgs_.resize(n);
      iovs_.resize(n);
    }
  }
  std::vector<mmsghdr> msgs_;
  std::vector<iovec> iovs_;
};

#endif  // __linux__

}  // namespace

std::unique_ptr<BatchIoBackend> make_mmsg_backend() {
#ifdef __linux__
  return std::make_unique<MmsgBackend>();
#else
  return nullptr;
#endif
}

std::unique_ptr<BatchIoBackend> make_fallback_backend() {
  return std::make_unique<FallbackBackend>();
}

}  // namespace pa::net
