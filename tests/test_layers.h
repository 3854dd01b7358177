// Custom layers that tests compose through LayerSpec::custom.
#pragma once

#include <memory>

#include "group/gossip_layer.h"
#include "horus/stack_spec.h"
#include "layers/layer.h"

namespace pa {

/// A transparent layer: it registers no header field, never changes a
/// verdict and keeps no state, so a stack with it behaves as the stack
/// without it (the cost model charges it as a custom layer).
class PassLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kCustom; }
  std::string_view name() const override { return "pass"; }
  void init(LayerInit&) override {}
  SendVerdict pre_send(Message&, HeaderView&) const override {
    return SendVerdict::kOk;
  }
  DeliverVerdict pre_deliver(const Message&, const HeaderView&) const
      override {
    return DeliverVerdict::kDeliver;
  }
  void post_send(const Message&, const HeaderView&, LayerOps&) override {}
  void post_deliver(Message&, const HeaderView&, DeliverVerdict,
                    LayerOps&) override {}
  void predict_send(HeaderView&) const override {}
  void predict_deliver(HeaderView&) const override {}
  std::uint64_t state_digest() const override { return 0; }
};

inline LayerSpec pass_layer() {
  return LayerSpec::custom([] { return std::make_unique<PassLayer>(); });
}

/// A group gossip layer stamping a fixed view, one per side: its beacon
/// keeps an idle connection audible. Each beacon is a timer-driven protocol
/// emit flagged by a one-bit proto-spec field (so it takes the slow path)
/// and shed as ShedClass::kLiveness. Hearing gossip re-arms the hearer's
/// beacon, so the view must be non-empty for both sides to keep talking.
/// The beacon re-arms forever: a simulation using it must run with a
/// bounded horizon (World::run_for).
inline LayerSpec beacon_layer(VtDur interval) {
  return LayerSpec::custom([interval]() -> std::unique_ptr<Layer> {
    group::GroupGossipConfig cfg;
    cfg.beacon_interval = interval;
    return std::make_unique<group::GroupGossipLayer>(
        cfg,
        std::make_shared<group::GossipOutbound>(
            group::GossipOutbound{/*epoch=*/1, /*digest=*/1}),
        group::GossipHooks{});
  });
}

}  // namespace pa
