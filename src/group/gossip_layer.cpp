#include "group/gossip_layer.h"

#include "layers/layer.h"
#include "obs/bridge.h"

namespace pa::group {

void GroupGossipLayer::init(LayerInit& ctx) {
  f_beacon_ = ctx.layout.add_field(FieldClass::kProtoSpec, "grpb", 1);
  f_epoch_ = ctx.layout.add_field(FieldClass::kGossip, "gepoch", 16);
  f_digest_ = ctx.layout.add_field(FieldClass::kGossip, "gdigest", 32);
  f_ack_ = ctx.layout.add_field(FieldClass::kGossip, "gack", 32);
}

void GroupGossipLayer::write_gossip(HeaderView& hdr) const {
  hdr.set(f_epoch_, out_->epoch);
  hdr.set(f_digest_, out_->digest);
  hdr.set(f_ack_, out_->has_ack ? out_->acked + 1 : 0);
}

SendVerdict GroupGossipLayer::pre_send(Message& msg, HeaderView& hdr) const {
  (void)msg;
  hdr.set(f_beacon_, 0);
  write_gossip(hdr);
  return SendVerdict::kOk;
}

DeliverVerdict GroupGossipLayer::pre_deliver(const Message&,
                                             const HeaderView& hdr) const {
  // Beacons exist for their gossip, which post_deliver harvests; the
  // application never sees them.
  return hdr.get(f_beacon_) == 0 ? DeliverVerdict::kDeliver
                                 : DeliverVerdict::kConsume;
}

void GroupGossipLayer::post_send(const Message&, const HeaderView&,
                                 LayerOps& ops) {
  last_sent_ = ops.now();
  arm(ops);
}

void GroupGossipLayer::post_deliver(Message&, const HeaderView& hdr,
                                    DeliverVerdict verdict, LayerOps& ops) {
  if (verdict == DeliverVerdict::kConsume && hdr.get(f_beacon_) != 0) {
    ++stats_.beacons_received;
  }
  if (hooks_.on_heard) hooks_.on_heard(ops.now());

  // Harvest the gossip region. All-zero means the frame was emitted below
  // this layer (window ack, NAK) and simply has nothing to say —
  // out-of-date or absent gossip must be harmless (paper §2.1).
  const std::uint64_t epoch = hdr.get(f_epoch_);
  const std::uint64_t digest = hdr.get(f_digest_);
  const std::uint64_t ack_wire = hdr.get(f_ack_);
  if (epoch == 0 && digest == 0 && ack_wire == 0) return;
  ++stats_.gossip_frames_seen;
  if (digest != 0 && hooks_.on_view) {
    ++stats_.views_seen;
    hooks_.on_view(static_cast<std::uint16_t>(epoch),
                   static_cast<std::uint32_t>(digest));
  }
  if (ack_wire != 0 && hooks_.on_ack) {
    ++stats_.acks_seen;
    hooks_.on_ack(static_cast<std::uint32_t>(ack_wire - 1));
  }
  // Receiving traffic obliges us to keep our own gossip audible.
  arm(ops);
}

void GroupGossipLayer::arm(LayerOps& ops) {
  if (timer_armed_ || cfg_.beacon_interval <= 0) return;
  timer_armed_ = true;
  ops.set_timer(cfg_.beacon_interval, [this](LayerOps& t) {
    timer_armed_ = false;
    if (t.now() - last_sent_ >= cfg_.beacon_interval) {
      // Counted before emit_down: the governor may shed the emission
      // (ShedClass), and `attempted - shed_* = emitted` must hold exactly.
      ++stats_.beacons_attempted;
      last_sent_ = t.now();
      Message beacon;
      beacon.cb.protocol = true;
      t.emit_down(std::move(beacon), [this](HeaderView& hdr) {
        hdr.set(f_beacon_, 1);
        write_gossip(hdr);
      });
    }
    arm(t);
  });
}

void GroupGossipLayer::predict_send(HeaderView& hdr) const {
  hdr.set(f_beacon_, 0);
  // The prediction embeds a gossip *snapshot*: fast sends stamp it as-is,
  // so gossip on the wire may lag the live Outbound until the next
  // prediction rebuild (post batch or timer). That staleness is the
  // paper's contract for the gossip class.
  write_gossip(hdr);
}

void GroupGossipLayer::predict_deliver(HeaderView& hdr) const {
  hdr.set(f_beacon_, 0);
  // Deliver prediction only ever compares the protocol-specific region;
  // the gossip values written here are never checked (varying gossip must
  // not break the delivery fast path). Zeros keep the scratch canonical.
  hdr.set(f_epoch_, 0);
  hdr.set(f_digest_, 0);
  hdr.set(f_ack_, 0);
}

void GroupGossipLayer::bind_stats(obs::MetricsRegistry& reg,
                                  const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
}

std::uint64_t GroupGossipLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, out_->epoch);
  h = digest_mix(h, out_->digest);
  h = digest_mix(h, out_->has_ack ? out_->acked + 1 : 0);
  h = digest_mix(h, static_cast<std::uint64_t>(last_sent_));
  h = digest_mix(h, timer_armed_ ? 1 : 0);
  h = digest_mix(h, stats_.beacons_attempted);
  h = digest_mix(h, stats_.gossip_frames_seen);
  return h;
}

}  // namespace pa::group
