// HeartbeatLayer: a keepalive in canonical form.
//
// This layer keeps a connection audible; it does not judge the peer. It:
//   - emits a protocol heartbeat message when the connection has been
//     send-idle for `interval` (timer-driven, post-phase work);
//   - consumes heartbeats before they reach the application.
// Whether the peer is alive is the health plane's question
// (src/health/plane.h): an owner feeds it the arrivals it observes, and
// the plane alone suspects, confirms and restores.
//
// Header cost: a single protocol-specific bit. Data messages carry hb=0 —
// the predicted header is unaffected, so the fast path stays fast; the
// occasional heartbeat takes the slow path by design (its hb=1 mismatches
// the prediction), exactly like the paper's fragment bit.
#pragma once

#include "layers/layer.h"

namespace pa {

struct HeartbeatConfig {
  VtDur interval = vt_ms(50);  // send-idle gap before a heartbeat
};

class HeartbeatLayer final : public Layer {
 public:
  explicit HeartbeatLayer(HeartbeatConfig cfg) : cfg_(cfg) {}

  LayerKind kind() const override { return LayerKind::kCustom; }
  std::string_view name() const override { return "heartbeat"; }
  // Heartbeats are pure liveness gossip: the governor sheds them first.
  ShedClass shed_class() const override { return ShedClass::kLiveness; }

  void init(LayerInit& ctx) override;

  SendVerdict pre_send(Message& msg, HeaderView& hdr) const override;
  DeliverVerdict pre_deliver(const Message& msg,
                             const HeaderView& hdr) const override;
  void post_send(const Message& msg, const HeaderView& hdr,
                 LayerOps& ops) override;
  void post_deliver(Message& msg, const HeaderView& hdr,
                    DeliverVerdict verdict, LayerOps& ops) override;
  void predict_send(HeaderView& hdr) const override;
  void predict_deliver(HeaderView& hdr) const override;
  std::uint64_t state_digest() const override;

  struct Stats {
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_received = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void arm(LayerOps& ops);

  HeartbeatConfig cfg_;
  FieldHandle f_hb_{};  // proto-spec, 1 bit

  Vt last_sent_ = 0;
  bool timer_armed_ = false;
  Stats stats_;
};

}  // namespace pa
