// Endpoints and the two worlds they live in.
//
// A World owns endpoints and dispatches their traffic:
//   - LoopWorld: one RealLoop thread over loopback UDP, one socket per
//     endpoint (the rpc and stream workloads);
//   - InprocWorld: no sockets. Frames go straight to the peer's
//     Router::on_frame, deferred work runs after each dispatch as it does
//     in RealLoop, and timers sit on a steady-clock heap (the inproc
//     workload, and the decorator self-check with the clock frozen).
// Each endpoint runs one engine behind a zero-cost Env (no cost-model
// charges, no GC model) that counts the bytes handed to the network and
// wraps every boundary call in a span when tracing is on.
#pragma once

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "classic/engine.h"
#include "net/real_loop.h"
#include "pa/accelerator.h"
#include "pa/router.h"
#include "payload.h"
#include "trace.h"

namespace wb {

/// Loopback UDP does not work here (see LoopWorld::probe).
struct Unavailable : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class BenchEnv : public pa::Env {
 public:
  std::function<void(std::span<const std::uint8_t>)> on_deliver;
  std::uint64_t wire_bytes = 0;  // every frame the engine hands out
  /// Self-check only: when set, every outgoing frame is copied here.
  std::vector<std::vector<std::uint8_t>>* tap = nullptr;

  void charge(pa::VtDur) override {}
  void send_frame(std::vector<std::uint8_t> f) override {
    send_frame(pa::WireFrame::adopt(std::move(f)));
  }
  void send_frame(pa::WireFrame f) override {
    Span s(kSendFrame);
    wire_bytes += f.size();
    if (tap) tap->push_back(f.flatten());
    transmit(std::move(f));
  }
  void deliver(std::span<const std::uint8_t> p) override {
    Span s(kDeliver);
    if (tracer.on()) tracer.tag(Payloads::id_of(p));
    on_deliver(p);
  }
  void defer(std::function<void()> fn) override {
    Span s(kDefer);
    if (!tracer.on()) {
      post(std::move(fn));
      return;
    }
    post([fn = std::move(fn), msg = tracer.current_msg()] {
      Span d(kDeferred, msg);
      fn();
    });
  }
  void set_timer(pa::VtDur delay, std::function<void()> fn) override {
    if (!tracer.on()) {
      arm(delay, std::move(fn));
      return;
    }
    arm(delay, [fn = std::move(fn)] {
      Span t(kTimer);
      fn();
    });
  }
  void trace(std::string_view) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

 protected:
  virtual void transmit(pa::WireFrame f) = 0;
  virtual void post(std::function<void()> fn) = 0;
  virtual void arm(pa::VtDur delay, std::function<void()> fn) = 0;
};

class Endpoint {
 public:
  Endpoint(bool pa, std::unique_ptr<BenchEnv> env, int sock)
      : pa_(pa), sock_(sock), env_(std::move(env)) {}
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Build the engine: the stack, its layout and (PA) compiled filters.
  void build(const pa::StackSpec& spec, std::uint64_t cookie_seed) {
    if (pa_) {
      pa::PaConfig cfg;
      cfg.stack.spec = spec;
      cfg.costs = pa::CostModel::zero();
      cfg.cookie_seed = cookie_seed;
      engine_ = std::make_unique<pa::PaEngine>(std::move(cfg), *env_);
      router_.set_kind(pa::Router::Kind::kPa);
    } else {
      pa::ClassicConfig cfg;
      cfg.stack.spec = spec;
      cfg.costs = pa::CostModel::zero();
      engine_ = std::make_unique<pa::ClassicEngine>(std::move(cfg), *env_);
      router_.set_kind(pa::Router::Kind::kClassic);
    }
    router_.add(engine_.get());
  }

  void on_wire(pa::WireFrame f, pa::Vt at) {
    Span s(pa_ ? kPaOnFrame : kClassicOnFrame);
    router_.on_frame(std::move(f), at);
  }

  void send(std::span<const std::uint8_t> p, std::uint64_t msg) {
    Span s(pa_ ? kPaSend : kClassicSend, msg);
    engine_->send(p);
  }

  int sock() const { return sock_; }
  BenchEnv& env() { return *env_; }
  pa::Engine& engine() { return *engine_; }
  const pa::Router& router() const { return router_; }

 private:
  bool pa_;
  int sock_;
  std::unique_ptr<BenchEnv> env_;
  pa::Router router_;
  std::unique_ptr<pa::Engine> engine_;
};

class World {
 public:
  virtual ~World() = default;
  /// A new endpoint with its own socket (or in-process port).
  virtual Endpoint& open(bool pa) = 0;
  /// Point two endpoints at each other.
  virtual void pair(Endpoint& a, Endpoint& b) = 0;
  /// Dispatch until done() holds (true) or the budget elapses (false).
  virtual bool run_until(const std::function<bool()>& done,
                         pa::VtDur budget) = 0;
};

class LoopWorld final : public World {
 public:
  /// Send one datagram to ourselves over 127.0.0.1 with plain sockets, no
  /// engine involved, and throw Unavailable unless it comes back. Only this
  /// probe may call the workload unavailable: once it passes, anything that
  /// goes wrong is the program's failure.
  static void probe() {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw Unavailable("cannot open a UDP socket");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof a;
    const char out[] = "wallbench-probe";
    char in[sizeof out] = {};
    pollfd p{fd, POLLIN, 0};
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) == 0 &&
        ::sendto(fd, out, sizeof out, 0, reinterpret_cast<sockaddr*>(&a),
                 sizeof a) == static_cast<ssize_t>(sizeof out) &&
        ::poll(&p, 1, 1000) == 1 &&
        ::recv(fd, in, sizeof in, 0) == static_cast<ssize_t>(sizeof out) &&
        std::equal(out, out + sizeof out, in);
    ::close(fd);
    if (!ok) throw Unavailable("a datagram to 127.0.0.1 did not come back");
  }

  Endpoint& open(bool pa) override {
    const int sock = loop_.open_udp(0);
    if (sock < 0) throw std::runtime_error("RealLoop::open_udp failed");
    eps_.push_back(std::make_unique<Endpoint>(
        pa, std::make_unique<Env>(loop_, sock), sock));
    Endpoint* ep = eps_.back().get();
    loop_.on_frame(sock, [ep](pa::WireFrame f, pa::Vt at) {
      ep->on_wire(std::move(f), at);
    });
    return *ep;
  }
  void pair(Endpoint& a, Endpoint& b) override {
    loop_.set_peer(a.sock(), loop_.port(b.sock()));
    loop_.set_peer(b.sock(), loop_.port(a.sock()));
  }
  bool run_until(const std::function<bool()>& done,
                 pa::VtDur budget) override {
    return loop_.run_until(done, budget);
  }

 private:
  class Env final : public BenchEnv {
   public:
    Env(pa::RealLoop& loop, int sock) : loop_(loop), sock_(sock) {}
    pa::Vt now() const override { return loop_.now(); }

   protected:
    void transmit(pa::WireFrame f) override { loop_.sendv(sock_, f); }
    void post(std::function<void()> fn) override { loop_.defer(std::move(fn)); }
    void arm(pa::VtDur delay, std::function<void()> fn) override {
      loop_.set_timer(delay, std::move(fn));
    }

   private:
    pa::RealLoop& loop_;
    int sock_;
  };

  // The loop outlives the endpoints: their engines' pending closures sit in
  // its queues and are destroyed, never run, after the engines are gone.
  pa::RealLoop loop_;
  std::vector<std::unique_ptr<Endpoint>> eps_;
};

class InprocWorld final : public World {
 public:
  /// With `frozen_clock` now() stays 0, so no timer ever comes due and a
  /// run is a pure function of its inputs (the decorator self-check).
  explicit InprocWorld(bool frozen_clock = false)
      : frozen_(frozen_clock), t0_(now_ns()) {}

  Endpoint& open(bool pa) override {
    eps_.push_back(std::make_unique<Endpoint>(
        pa, std::make_unique<Env>(*this), -1));
    return *eps_.back();
  }
  void pair(Endpoint& a, Endpoint& b) override {
    static_cast<Env&>(a.env()).peer = &b;
    static_cast<Env&>(b.env()).peer = &a;
  }

  bool run_until(const std::function<bool()>& done,
                 pa::VtDur budget) override {
    const std::int64_t deadline = now_ns() + budget;
    while (!done()) {
      if (now_ns() >= deadline) return false;
      fire_due_timers();
      if (!frames_.empty()) {
        auto [to, f] = std::move(frames_.front());
        frames_.pop_front();
        to->on_wire(std::move(f), now());
        drain_deferred();
      } else if (!deferred_.empty()) {
        drain_deferred();
      } else if (frozen_ || timers_.empty()) {
        return done();  // quiescent: nothing can happen any more
      }
    }
    return true;
  }

 private:
  struct Timer {
    pa::Vt at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  class Env final : public BenchEnv {
   public:
    explicit Env(InprocWorld& w) : w_(w) {}
    pa::Vt now() const override { return w_.now(); }
    Endpoint* peer = nullptr;

   protected:
    void transmit(pa::WireFrame f) override {
      w_.frames_.emplace_back(peer, std::move(f));
    }
    void post(std::function<void()> fn) override {
      w_.deferred_.push_back(std::move(fn));
    }
    void arm(pa::VtDur delay, std::function<void()> fn) override {
      w_.timers_.push_back(Timer{w_.now() + delay, w_.timer_seq_++,
                                 std::move(fn)});
      std::push_heap(w_.timers_.begin(), w_.timers_.end(), std::greater<>{});
    }

   private:
    InprocWorld& w_;
  };

  pa::Vt now() const { return frozen_ ? 0 : now_ns() - t0_; }

  void drain_deferred() {
    while (!deferred_.empty()) {
      std::function<void()> fn = std::move(deferred_.front());
      deferred_.pop_front();
      fn();
    }
  }

  void fire_due_timers() {
    while (!timers_.empty() && timers_.front().at <= now()) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
      std::function<void()> fn = std::move(timers_.back().fn);
      timers_.pop_back();
      fn();
      drain_deferred();
    }
  }

  bool frozen_;
  std::int64_t t0_;
  std::deque<std::pair<Endpoint*, pa::WireFrame>> frames_;
  std::deque<std::function<void()>> deferred_;
  std::vector<Timer> timers_;  // min-heap on (at, seq)
  std::uint64_t timer_seq_ = 0;
  // Declared last: endpoints go first, before the queues holding their
  // engines' closures.
  std::vector<std::unique_ptr<Endpoint>> eps_;
};

}  // namespace wb
