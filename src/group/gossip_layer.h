// GroupGossipLayer: membership + stability gossip riding the gossip header
// class (paper §2.1).
//
// The gossip class exists for exactly this: small, frequently-refreshed
// state that wants to ride every outgoing message for free, is not compared
// on the delivery fast path (unlike protocol-specific fields), and must be
// harmless when stale or missing. This layer stamps three gossip fields on
// every frame its connection sends:
//
//   gepoch (16b) + gdigest (32b) — the sender's current view epoch and
//       membership digest. Members echo the pair they last saw, which is
//       how the coordinator observes view convergence.
//   gack (32b) — highest group seqno this endpoint has delivered, PLUS ONE:
//       zero is the "no information" sentinel, because frames emitted by
//       layers *below* this one (window acks, NAKs) carry an
//       all-zero gossip region and must be harmless.
//
// Fast-path interaction (the point of the exercise): on the send side the
// predicted header includes a *snapshot* of these fields — a fast send
// stamps possibly stale gossip, by design; predictions refresh after every
// post batch. On the delivery side the predicted-header memcmp covers the
// protocol-specific region only, so varying gossip never causes a
// prediction miss. tests/gossip_test.cpp pins both properties.
//
// When the connection is idle a timer emits a beacon (protocol message
// flagged by a 1-bit proto-spec field, consumed before the application)
// whose only cargo is the gossip — stability keeps advancing without data.
// Beacons are shed by the overload governor according to shed_class(),
// which the group sender assigns from the member's priority: low-priority
// members' beacons go first (kLiveness, shed at Saturated), high-priority
// ones survive until Critical (kGossipAck). Data is never shed here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "layers/layer.h"
#include "util/stat_fields.h"
#include "util/types.h"

namespace pa::group {

/// What this endpoint currently stamps outward. Shared (shared_ptr) with
/// the owner, which refreshes it as views change and deliveries advance;
/// the layer samples it in pre_send/predict_send.
struct GossipOutbound {
  std::uint16_t epoch = 0;
  std::uint32_t digest = 0;   // 0 = nothing to say yet
  bool has_ack = false;
  std::uint32_t acked = 0;    // wire value is acked+1 (0 = no info)
};

/// Post-deliver callbacks into the owner (coordinator or member core).
/// They run in the deferred post phase, so they may mutate owner state.
struct GossipHooks {
  std::function<void(std::uint16_t epoch, std::uint32_t digest)> on_view;
  std::function<void(std::uint32_t acked)> on_ack;
  std::function<void(Vt now)> on_heard;
};

struct GroupGossipConfig {
  /// Idle gap before a gossip beacon is emitted; 0 disables beacons (then
  /// gossip rides data and the other side's traffic only).
  VtDur beacon_interval = vt_ms(25);
  /// Governor shed class for beacons (see file comment).
  ShedClass shed = ShedClass::kLiveness;
};

// GroupGossipLayer::Stats, one row per field (util/stat_fields.h).
// beacons_attempted is bumped before emit_down, so attempted minus the
// governor's gossip sheds is the number of beacons actually emitted.
#define PA_GOSSIP_STATS(X)                                                     \
  X(std::uint64_t, beacons_attempted, "beacons_attempted_total", "",          \
    "stability/membership beacons attempted (before the governor's shed)")     \
  X(std::uint64_t, beacons_received, "beacons_received_total", "",            \
    "beacons consumed on delivery")                                            \
  X(std::uint64_t, gossip_frames_seen, "gossip_frames_total", "",             \
    "frames carrying non-empty group gossip")                                  \
  X(std::uint64_t, acks_seen, "acks_seen_total", "",                           \
    "gossip delivery cursors harvested")                                       \
  X(std::uint64_t, views_seen, "views_seen_total", "",                         \
    "gossip view epoch/digest pairs harvested")

class GroupGossipLayer final : public Layer {
 public:
  GroupGossipLayer(GroupGossipConfig cfg, std::shared_ptr<GossipOutbound> out,
                   GossipHooks hooks)
      : cfg_(cfg), out_(std::move(out)), hooks_(std::move(hooks)) {}

  LayerKind kind() const override { return LayerKind::kCustom; }
  std::string_view name() const override { return "group-gossip"; }
  ShedClass shed_class() const override { return cfg_.shed; }

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
  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix) const override;

  struct Stats {
    PA_STAT_FIELDS(PA_GOSSIP_STATS)
  };
  const Stats& stats() const { return stats_; }

 private:
  void write_gossip(HeaderView& hdr) const;
  void arm(LayerOps& ops);

  GroupGossipConfig cfg_;
  std::shared_ptr<GossipOutbound> out_;
  GossipHooks hooks_;

  FieldHandle f_beacon_{};  // proto-spec, 1 bit
  FieldHandle f_epoch_{};   // gossip, 16 bits
  FieldHandle f_digest_{};  // gossip, 32 bits
  FieldHandle f_ack_{};     // gossip, 32 bits (acked+1; 0 = no info)

  Vt last_sent_ = 0;
  bool timer_armed_ = false;
  Stats stats_;
};

}  // namespace pa::group
