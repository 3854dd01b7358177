#include "horus/endpoint.h"

#include "horus/world.h"
#include "obs/trace_ring.h"
#include "pa/accelerator.h"

namespace pa {

/// Env implementation binding an endpoint to its node's CPU, the simulated
/// network and the node's GC model.
class Endpoint::NodeEnv final : public Env {
 public:
  NodeEnv(Endpoint& ep, SimNetwork& net, NodeId peer)
      : ep_(ep), net_(net), peer_(peer) {}

  Vt now() const override { return ep_.node_.cpu(ep_.cpu_index_).now(); }
  bool clock_is_virtual() const override { return true; }

  void charge(VtDur d) override { ep_.node_.cpu(ep_.cpu_index_).charge(d); }

  void send_frame(std::vector<std::uint8_t> frame) override {
    net_.send(ep_.node_.id(), peer_, std::move(frame),
              ep_.node_.cpu(ep_.cpu_index_).now());
  }

  void send_frame(WireFrame frame) override {
    // The gather list rides the simulated wire as-is — no flatten.
    net_.send(ep_.node_.id(), peer_, std::move(frame),
              ep_.node_.cpu(ep_.cpu_index_).now());
  }

  void deliver(std::span<const std::uint8_t> payload) override {
    ++ep_.received_;
    if (ep_.deliver_fn_) ep_.deliver_fn_(payload);
  }

  void defer(std::function<void()> fn) override {
    ep_.node_.cpu(ep_.cpu_index_).post_idle(std::move(fn));
  }

  void set_timer(VtDur delay, std::function<void()> fn) override {
    ep_.node_.cpu(ep_.cpu_index_).post_at(ep_.node_.cpu(ep_.cpu_index_).now() + delay, std::move(fn));
  }

  void on_alloc(std::size_t bytes) override {
    ep_.node_.gc(ep_.cpu_index_).on_alloc(bytes);
  }

  void on_reception() override { ep_.node_.gc(ep_.cpu_index_).on_reception(); }

  void gc_point() override {
    const Vt t0 = now();
    VtDur pause = ep_.node_.gc(ep_.cpu_index_).poll();
    if (pause > 0) {
      charge(pause);
      obs::span(obs::SpanKind::kGcPause, t0, obs::span_dur(pause), 0,
                ep_.engine_->obs_id());
    }
  }

 private:
  Endpoint& ep_;
  SimNetwork& net_;
  NodeId peer_;
};

Endpoint::Endpoint(Node& node, SimNetwork& net, NodeId peer,
                   std::size_t cpu_index)
    : node_(node), cpu_index_(cpu_index),
      env_(std::make_unique<NodeEnv>(*this, net, peer)) {}

PaEngine* Endpoint::pa() { return dynamic_cast<PaEngine*>(engine_.get()); }

}  // namespace pa
