#include "layers/heartbeat_layer.h"

namespace pa {

void HeartbeatLayer::init(LayerInit& ctx) {
  f_hb_ = ctx.layout.add_field(FieldClass::kProtoSpec, "hb", 1);
}

SendVerdict HeartbeatLayer::pre_send(Message& msg, HeaderView& hdr) const {
  // Data passes through with hb=0; our own heartbeats never traverse this
  // layer (emit_down runs only the layers *below* the emitter), so the flag
  // for them is set in the emit fill callback.
  (void)msg;
  hdr.set(f_hb_, 0);
  return SendVerdict::kOk;
}

DeliverVerdict HeartbeatLayer::pre_deliver(const Message&,
                                           const HeaderView& hdr) const {
  return hdr.get(f_hb_) == 0 ? DeliverVerdict::kDeliver
                             : DeliverVerdict::kConsume;
}

void HeartbeatLayer::post_send(const Message&, const HeaderView&,
                               LayerOps& ops) {
  last_sent_ = ops.now();
  arm(ops);
}

void HeartbeatLayer::post_deliver(Message&, const HeaderView& hdr,
                                  DeliverVerdict verdict, LayerOps& ops) {
  if (verdict == DeliverVerdict::kConsume && hdr.get(f_hb_) != 0) {
    ++stats_.heartbeats_received;
  }
  // Hearing from the peer also obliges us to stay audible.
  arm(ops);
}

void HeartbeatLayer::arm(LayerOps& ops) {
  if (timer_armed_) return;
  timer_armed_ = true;
  ops.set_timer(cfg_.interval, [this](LayerOps& t) {
    timer_armed_ = false;
    if (t.now() - last_sent_ >= cfg_.interval) {
      ++stats_.heartbeats_sent;
      last_sent_ = t.now();
      Message hb;
      hb.cb.protocol = true;
      t.emit_down(std::move(hb), [this](HeaderView& hdr) {
        hdr.set(f_hb_, 1);
      });
    }
    arm(t);
  });
}

void HeartbeatLayer::predict_send(HeaderView& hdr) const {
  hdr.set(f_hb_, 0);
}

void HeartbeatLayer::predict_deliver(HeaderView& hdr) const {
  hdr.set(f_hb_, 0);
}

std::uint64_t HeartbeatLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, static_cast<std::uint64_t>(last_sent_));
  h = digest_mix(h, timer_armed_ ? 1 : 0);
  h = digest_mix(h, stats_.heartbeats_sent);
  h = digest_mix(h, stats_.heartbeats_received);
  return h;
}

}  // namespace pa
