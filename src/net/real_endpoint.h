// Real-transport endpoint: a PaEngine (or ClassicEngine) bound to a UDP
// socket via RealLoop, with a wall-clock Env.
//
// Under real time there is no cost model to charge (the CPU cost is the
// actual CPU cost) and no simulated GC (C++ has none — which is itself an
// interesting datum next to the paper's O'Caml pauses): charge() and the GC
// hooks are no-ops; defer() runs after the current dispatch, which is
// exactly "when the application is idle".
//
// Single-threaded, like the loop it rides on: the endpoint, its engine and
// every callback (deliveries included) run on the loop's thread.
#pragma once

#include <memory>

#include "classic/engine.h"
#include "horus/env.h"
#include "net/real_loop.h"
#include "pa/accelerator.h"
#include "pa/router.h"

namespace pa {

class RealEndpoint {
 public:
  using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

  /// Opens a UDP socket on the loop. Call peer() + connect_to() on both
  /// sides, then make_pa()/make_classic().
  RealEndpoint(RealLoop& loop, std::uint16_t port = 0);

  std::uint16_t local_port() const { return loop_->port(sock_); }
  void connect_to(std::uint16_t peer_port);

  /// Instantiate the engine. `local`/`remote` are written into the bottom
  /// layer of `cfg.stack.spec` so the conn-ident matching works.
  void make_pa(PaConfig cfg, const Address& local, const Address& remote);
  void make_classic(ClassicConfig cfg);

  void send(std::span<const std::uint8_t> payload) { engine_->send(payload); }
  /// Deliveries arrive on the loop's thread, inside run_until().
  void on_deliver(DeliverFn fn) { deliver_fn_ = std::move(fn); }

  Engine& engine() { return *engine_; }
  Router& router() { return router_; }
  /// The loop socket index (e.g. to arm a fault injector on this side's
  /// send path via RealLoop::set_fault).
  int sock() const { return sock_; }
  Vt now() const { return loop_->now(); }
  std::uint64_t received() const { return received_; }

 private:
  class LoopEnv;

  RealLoop* loop_;
  int sock_;
  Router router_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  DeliverFn deliver_fn_;
  std::uint64_t received_ = 0;
};

}  // namespace pa
