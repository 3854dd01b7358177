// BottomLayer: the wire-adjacent layer.
//
// Owns the connection identification (large endpoint addresses — in Horus
// the conn-ident occupies about 76 bytes, which is exactly what this layer
// registers: 2 x 32-byte endpoint addresses, an 8-byte group id and a
// 4-byte version) and the message-specific integrity fields (length and
// checksum), which it wires into the send/receive packet filters.
#pragma once

#include <array>

#include "layers/layer.h"
#include "util/stat_fields.h"

namespace pa {

/// A 32-byte endpoint address (modeled after Horus's large endpoint ids;
/// the paper's point that addresses keep growing is why conn-ident
/// compression matters).
struct Address {
  std::array<std::uint64_t, 4> words{};

  friend bool operator==(const Address&, const Address&) = default;
};

struct BottomConfig {
  Address local;
  Address remote;
  std::uint64_t group = 0;
};

// BottomLayer::Stats, one row per field (util/stat_fields.h).
#define PA_BOTTOM_STATS(X)                                                     \
  X(std::uint64_t, sent, "sent_total", "", "frames framed")                    \
  X(std::uint64_t, delivered, "delivered_total", "", "frames accepted")        \
  X(std::uint64_t, checksum_drops, "checksum_drops_total", "",                 \
    "frames failing the checksum")                                             \
  X(std::uint64_t, length_drops, "length_drops_total", "",                     \
    "frames failing the length check")

class BottomLayer final : public Layer {
 public:
  /// The protocol version every frame's conn-ident carries and must match.
  static constexpr std::uint32_t kVersion = 1;

  explicit BottomLayer(BottomConfig cfg) : cfg_(cfg) {}

  LayerKind kind() const override { return LayerKind::kBottom; }
  std::string_view name() const override { return "bottom"; }

  void init(LayerInit& ctx) override;
  void write_conn_ident(HeaderView& hdr, bool incoming) const override;
  bool match_conn_ident(const HeaderView& hdr) const override;

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
    PA_STAT_FIELDS(PA_BOTTOM_STATS)
  };
  const Stats& stats() const { return stats_; }

 private:
  BottomConfig cfg_;
  // conn-ident fields
  std::array<FieldHandle, 4> f_src_{};
  std::array<FieldHandle, 4> f_dst_{};
  FieldHandle f_group_{};
  FieldHandle f_version_{};
  // msg-spec fields
  FieldHandle f_len_{};
  FieldHandle f_cksum_{};

  Stats stats_;
};

}  // namespace pa
