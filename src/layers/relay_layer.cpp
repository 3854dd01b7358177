#include "layers/relay_layer.h"

#include "obs/bridge.h"

namespace pa {

void RelayLayer::init(LayerInit& ctx) {
  f_dst_ = ctx.layout.add_field(FieldClass::kProtoSpec, kDstHopField, 16);
  f_src_ = ctx.layout.add_field(FieldClass::kProtoSpec, kSrcHopField, 16);
}

SendVerdict RelayLayer::pre_send(Message&, HeaderView& hdr) const {
  hdr.set(f_dst_, cfg_.peer_hop);
  hdr.set(f_src_, cfg_.local_hop);
  return SendVerdict::kOk;
}

DeliverVerdict RelayLayer::pre_deliver(const Message&,
                                       const HeaderView& hdr) const {
  const auto dst = static_cast<std::uint16_t>(hdr.get(f_dst_));
  return dst == cfg_.local_hop ? DeliverVerdict::kDeliver
                               : DeliverVerdict::kDrop;
}

void RelayLayer::post_send(const Message&, const HeaderView&, LayerOps&) {
  ++stats_.stamped;
}

void RelayLayer::post_deliver(Message&, const HeaderView&,
                              DeliverVerdict verdict, LayerOps&) {
  if (verdict == DeliverVerdict::kDrop) {
    ++stats_.misrouted;
  } else {
    ++stats_.accepted;
  }
}

void RelayLayer::predict_send(HeaderView& hdr) const {
  hdr.set(f_dst_, cfg_.peer_hop);
  hdr.set(f_src_, cfg_.local_hop);
}

void RelayLayer::predict_deliver(HeaderView& hdr) const {
  hdr.set(f_dst_, cfg_.local_hop);
  hdr.set(f_src_, cfg_.peer_hop);
}

void RelayLayer::bind_stats(obs::MetricsRegistry& reg,
                           const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
}

std::uint64_t RelayLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, cfg_.local_hop);
  h = digest_mix(h, cfg_.peer_hop);
  h = digest_mix(h, stats_.stamped);
  h = digest_mix(h, stats_.accepted);
  h = digest_mix(h, stats_.misrouted);
  return h;
}

}  // namespace pa
