// NakLayer: receiver-driven (negative-acknowledgement) reliability.
//
// The Horus family used NAK-based protocols where losses are rare and
// feedback should be exceptional: the sender streams sequenced messages
// with no window and no acks; the receiver detects gaps and requests the
// missing sequences explicitly. Properties:
//
//   - zero reverse traffic on a clean link (vs. the window layer's acks);
//   - no flow control: the sender keeps a bounded history ring and can only
//     repair losses younger than kHistory messages — the classic NAK
//     trade-off ("best effort within the repair horizon");
//   - gaps are re-requested on a timer until filled.
//
// Fully canonical: fast-path prediction works exactly as for the window
// layer (type=DATA, seq=expected), NAKs mismatch and take the slow path.
#pragma once

#include <map>

#include "layers/layer.h"
#include "util/stat_fields.h"

namespace pa {

// NakLayer::Stats, one row per field (util/stat_fields.h).
#define PA_NAK_STATS(X)                                                        \
  X(std::uint64_t, data_sent, "data_sent_total", "", "data messages sent")     \
  X(std::uint64_t, data_delivered, "data_delivered_total", "",                 \
    "data messages delivered")                                                 \
  X(std::uint64_t, naks_sent, "naks_sent_total", "", "negative acks sent")     \
  X(std::uint64_t, naks_received, "naks_received_total", "",                   \
    "negative acks received")                                                  \
  X(std::uint64_t, repairs, "repairs_total", "",                               \
    "retransmissions answering a NAK")                                         \
  X(std::uint64_t, unrepairable, "unrepairable_total", "",                     \
    "NAKs for sequences older than the history")                               \
  X(std::uint64_t, duplicates, "duplicates_total", "",                         \
    "duplicate data messages discarded")                                       \
  X(std::uint64_t, gaps_abandoned, "gaps_abandoned_total", "",                 \
    "receive gaps given up on")

class NakLayer final : public Layer {
 public:
  // Repair horizon (messages).
  static constexpr std::size_t kHistory = 64;
  // Re-request cadence for open gaps.
  static constexpr VtDur kRenakInterval = vt_ms(5);
  // Bound repair-request bursts.
  static constexpr std::uint32_t kMaxNaksPerFire = 4;
  // Give up on a head gap after this many re-requests without progress:
  // the peer's history has certainly wrapped; endless re-NAKing would be a
  // livelock. The stream stalls (stalled() turns true) — the documented
  // NAK-protocol failure mode, surfaced instead of spun on.
  static constexpr std::uint32_t kMaxNakRetries = 100;

  LayerKind kind() const override { return LayerKind::kCustom; }
  std::string_view name() const override { return "nak"; }
  // A reliability protocol at the window layer's slot, despite kCustom.
  LayerTraits traits() const override { return {40, true, false}; }

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
  // The history ring (a repair buffer that never drains) and the stalled
  // flag are deliberately excluded: neither has a peer-side mirror. A stall
  // shows up anyway, as cursors that never meet.
  std::uint64_t sync_digest() const override {
    return sync_half(next_seq_, 0) + sync_half(expected_, stash_.size());
  }

  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix) const override;

  struct Stats {
    PA_STAT_FIELDS(PA_NAK_STATS)
  };
  const Stats& stats() const { return stats_; }
  std::uint32_t expected_seq() const { return expected_; }
  /// True when a gap was abandoned: the stream cannot advance any more.
  bool stalled() const { return stalled_; }

 private:
  enum NType : std::uint64_t { kData = 0, kNak = 1 };

  static bool seq_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }

  void emit_nak(std::uint32_t missing, LayerOps& ops);
  void arm_renak(LayerOps& ops);

  FieldHandle f_type_{};  // proto-spec, 1 bit
  FieldHandle f_seq_{};   // proto-spec, 32 bits
  FieldHandle f_rex_{};   // proto-spec, 1 bit
  FieldHandle f_miss_{};  // gossip, 32 bits: the sequence a NAK requests

  // sender
  std::uint32_t next_seq_ = 0;
  std::map<std::uint32_t, Message, SerialLess> history_;

  // receiver
  std::uint32_t expected_ = 0;
  std::map<std::uint32_t, Message, SerialLess> stash_;
  bool renak_armed_ = false;
  std::uint32_t head_retry_count_ = 0;  // re-NAKs of the current head gap
  bool stalled_ = false;

  Stats stats_;
};

}  // namespace pa
