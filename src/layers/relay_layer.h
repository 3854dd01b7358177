// RelayLayer: lokinet-style hop addressing for forwarding nodes.
//
// Adds two 16-bit protocol-specific header fields — the destination and
// source *hop identifiers* — so an intermediate node can forward a frame
// toward its destination by peeking one header field, without running (or
// even knowing) the endpoints' upper layers or holding their keys: the
// fields sit below the crypt layer in the composition, so they stay
// cleartext on an otherwise encrypted stack, exactly like an onion
// router's circuit ID.
//
// Both fields are constants for the lifetime of a connection, which makes
// them the *easiest* prediction case (predict writes the same constants
// every time). Delivery checks that the frame was actually meant for this
// hop: a mismatched dst_hop is dropped (DropReason::kMisroutedHop) — the
// guard that catches a misbehaving forwarder.
//
// The forwarding node itself does not instantiate this layer; it uses
// RelayForwarder (src/horus/relay.h), which derives the field's wire
// position from the same StackSpec the endpoints composed — the
// derived-artifacts story of ISSUE 10 applied to a third party.
#pragma once

#include "layers/layer.h"
#include "util/stat_fields.h"

namespace pa {

struct RelayConfig {
  std::uint16_t local_hop = 0;  // our hop id (checked on delivery)
  std::uint16_t peer_hop = 0;   // destination hop id (stamped on send)
};

// RelayLayer::Stats, one row per field (util/stat_fields.h).
#define PA_RELAY_STATS(X)                                                      \
  X(std::uint64_t, stamped, "stamped_total", "",                               \
    "frames stamped with hop identifiers")                                     \
  X(std::uint64_t, accepted, "accepted_total", "",                             \
    "frames addressed to this hop")                                            \
  X(std::uint64_t, misrouted, "misrouted_total", "",                           \
    "frames for another hop dropped")

class RelayLayer final : public Layer {
 public:
  explicit RelayLayer(RelayConfig cfg) : cfg_(cfg) {}

  LayerKind kind() const override { return LayerKind::kRelay; }
  std::string_view name() const override { return "relay"; }

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
    PA_STAT_FIELDS(PA_RELAY_STATS)
  };
  const Stats& stats() const { return stats_; }
  const RelayConfig& config() const { return cfg_; }

  /// Wire name of the destination-hop field (RelayForwarder looks the
  /// placed field up by this name in a composed stack's registry).
  static constexpr std::string_view kDstHopField = "relay_dst_hop";
  static constexpr std::string_view kSrcHopField = "relay_src_hop";

 private:
  RelayConfig cfg_;
  FieldHandle f_dst_{};  // proto-spec, 16 bits
  FieldHandle f_src_{};  // proto-spec, 16 bits

  Stats stats_;
};

}  // namespace pa
