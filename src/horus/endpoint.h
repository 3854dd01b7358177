// Endpoint: one side of a connection, as seen by an application.
//
// Wraps an engine (PA or classic) together with its execution environment
// binding (node CPU for cost charges, network for frames, GC model for
// pauses).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "horus/engine.h"
#include "horus/env.h"
#include "sim/event_queue.h"
#include "sim/gc_model.h"
#include "sim/network.h"

namespace pa {

class Node;
class PaEngine;

class Endpoint {
 public:
  using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

  Endpoint(Node& node, SimNetwork& net, NodeId peer,
           std::size_t cpu_index = 0);

  /// Install the engine after the env exists (World wires this up).
  void attach_engine(std::unique_ptr<Engine> engine) {
    engine_ = std::move(engine);
  }

  /// Send one application message.
  void send(std::span<const std::uint8_t> payload) { engine_->send(payload); }

  /// Send one application message whose payload chain the caller already
  /// owns — the engine shares the chunks by reference instead of copying
  /// (the group multicast fanout path).
  void send_message(Message m) { engine_->send(std::move(m)); }

  /// Register the application's delivery callback (runs at the virtual
  /// instant of delivery; it may call send()).
  void on_deliver(DeliverFn fn) { deliver_fn_ = std::move(fn); }

  Engine& engine() { return *engine_; }
  PaEngine* pa();  // nullptr if this endpoint runs the classic engine
  Env& env() { return *env_; }
  Node& node() { return node_; }

  /// The current virtual instant as seen by code on this endpoint's node.
  /// Inside a delivery callback this includes the CPU time the protocol
  /// already consumed for this event — use it (not World::now(), which is
  /// the event-queue dispatch time) to timestamp latencies.
  Vt now() const { return env_->now(); }

  std::uint64_t received() const { return received_; }

 private:
  class NodeEnv;

  Node& node_;
  std::size_t cpu_index_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  DeliverFn deliver_fn_;
  std::uint64_t received_ = 0;
};

}  // namespace pa
