#include "net/real_endpoint.h"

namespace pa {

class RealEndpoint::LoopEnv final : public Env {
 public:
  explicit LoopEnv(RealEndpoint& ep) : ep_(ep) {}

  Vt now() const override { return ep_.loop_->now(); }
  void charge(VtDur) override {}  // real CPUs charge themselves

  void send_frame(std::vector<std::uint8_t> frame) override {
    ep_.loop_->sendv(ep_.sock_, WireFrame::adopt(std::move(frame)));
  }

  void send_frame(WireFrame frame) override {
    ep_.loop_->sendv(ep_.sock_, std::move(frame));
  }

  void deliver(std::span<const std::uint8_t> payload) override {
    ++ep_.received_;
    if (ep_.deliver_fn_) ep_.deliver_fn_(payload);
  }

  void defer(std::function<void()> fn) override {
    ep_.loop_->defer(std::move(fn));
  }

  void set_timer(VtDur delay, std::function<void()> fn) override {
    ep_.loop_->set_timer(delay, std::move(fn));
  }

  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

 private:
  RealEndpoint& ep_;
};

RealEndpoint::RealEndpoint(RealLoop& loop, std::uint16_t port)
    : loop_(&loop), sock_(loop.open_udp(port)),
      env_(std::make_unique<LoopEnv>(*this)) {
  if (sock_ < 0) throw std::runtime_error("cannot open UDP socket");
  // The loop hands each received datagram over as a zero-copy WireFrame
  // (one slice into a loop-owned recv chunk); the router peeks the slice
  // and the engine adopts it — no ingest memcpy anywhere on the path.
  loop_->on_frame(sock_, [this](WireFrame frame, Vt at) {
    router_.on_frame(std::move(frame), at);
  });
}

void RealEndpoint::connect_to(std::uint16_t peer_port) {
  loop_->set_peer(sock_, peer_port);
}

void RealEndpoint::make_pa(PaConfig cfg, const Address& local,
                           const Address& remote) {
  if (LayerSpec* b = cfg.stack.spec.find(LayerSpec::Type::kBottom)) {
    b->bottom.local = local;
    b->bottom.remote = remote;
  }
  auto engine = std::make_unique<PaEngine>(std::move(cfg), *env_);
  router_.set_kind(Router::Kind::kPa);
  router_.add(engine.get());
  engine_ = std::move(engine);
}

void RealEndpoint::make_classic(ClassicConfig cfg) {
  auto engine = std::make_unique<ClassicEngine>(std::move(cfg), *env_);
  router_.set_kind(Router::Kind::kClassic);
  router_.add(engine.get());
  engine_ = std::move(engine);
}

}  // namespace pa
