// WindowLayer: a basic sliding-window protocol in canonical form (the
// paper's evaluation stack implements exactly this, with a window of 16).
//
// Reliability + FIFO ordering + flow control:
//   - every data message carries a 32-bit sequence number (protocol-
//     specific: predictable) and a cumulative acknowledgement (gossip:
//     piggybacked on every outgoing message, §2.1 class 4);
//   - out-of-order arrivals are stashed and released in order;
//   - unacked messages are saved (post-send) and retransmitted verbatim on
//     timeout as "unusual" messages carrying the connection identification
//     (§2.2);
//   - when the send window fills, the layer raises the PA's disable counter
//     (§3.2) so the PA backlogs — and later packs — outgoing messages.
//
// Instances are self-contained: the layer-scaling benchmark stacks this
// layer multiple times, exactly like the paper's doubled-window experiment.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "layers/layer.h"
#include "util/rng.h"
#include "util/stat_fields.h"

namespace pa {

struct WindowConfig {
  std::uint32_t size = 16;        // paper's window size
  VtDur rto = vt_ms(20);          // initial/base retransmission timeout
  // Adaptive RTO (Jacobson/Karn): estimate the round-trip time from ack
  // arrivals (skipping retransmitted messages per Karn's rule) and set the
  // timeout to srtt + 4*rttvar, clamped to [WindowLayer::kMinRto, rto]. On
  // by default: the fixed timer either wastes an RTT (timer too long) or
  // spuriously retransmits (too short) whenever the deployment's RTT
  // differs from the calibration. `rto` doubles as the estimator's
  // ceiling, so paper-calibrated experiments see identical behaviour until
  // the first loss. Set to false to pin the fixed timer.
  bool adaptive_rto = true;
  // Seeds the decorrelated jitter on the retransmission backoff
  // (WindowLayer::backoff_deadline), so the schedule is deterministic.
  std::uint64_t jitter_seed = 0x6a69747465720ull;
  // Fast retransmit: the receiver acks immediately on out-of-order arrival,
  // so WindowLayer::kDupAckThreshold duplicate standalone acks signal a
  // lost head-of-window without waiting out the RTO.
  bool fast_retransmit = true;
  // Selective acknowledgements (extension): gossip an additional 32-bit
  // bitmap of out-of-order sequences already held in the receive stash
  // (bit i <=> seq cumulative+1+i received). The sender skips sacked
  // messages when retransmitting and repairs *all* holes on a fast
  // retransmit. Costs 4 gossip bytes; off by default to keep the
  // paper-calibrated header sizes.
  bool selective_ack = false;
  std::uint32_t ack_every = 4;  // standalone ack after N data receptions
  // Delayed-ack timer. Its only job is to beat the peer's retransmission
  // timeout when we have no reverse traffic to piggyback on, so it should
  // sit well under `rto` but comfortably above a loaded request/response
  // cycle (including GC pauses and multi-client queueing) — otherwise every
  // RPC cycle pays a needless standalone ack plus an extra reception + GC
  // at the peer.
  VtDur ack_delay = vt_ms(8);
  // Starting sequence number (both sides must agree). Non-zero values let
  // tests exercise 32-bit wraparound; real deployments could randomize.
  std::uint32_t initial_seq = 0;
};

// WindowLayer::Stats, one row per field (util/stat_fields.h).
#define PA_WINDOW_STATS(X)                                                     \
  X(std::uint64_t, data_sent, "data_sent_total", "", "data messages sent")     \
  X(std::uint64_t, data_delivered, "data_delivered_total", "",                 \
    "data messages delivered")                                                 \
  X(std::uint64_t, acks_sent, "acks_sent_total", "", "acks sent")              \
  X(std::uint64_t, acks_received, "acks_received_total", "", "acks received")  \
  X(std::uint64_t, retransmits, "retransmits_total", "", "timer retransmits")  \
  X(std::uint64_t, fast_retransmits, "fast_retransmits_total", "",             \
    "dup-ack fast retransmits")                                                \
  X(std::uint64_t, duplicates, "duplicates_total", "",                         \
    "duplicate data messages discarded")                                       \
  X(std::uint64_t, stashed, "stashed_total", "",                               \
    "out-of-order messages stashed")                                           \
  X(std::uint64_t, window_stalls, "stalls_total", "",                          \
    "times the window filled")

class WindowLayer final : public Layer {
 public:
  static constexpr std::uint32_t kMaxRtoShift = 6;  // backoff cap (rto << n)
  // The RTO floor must exceed the peer's ack aggregation horizon (ack_every
  // frames or its delayed-ack timer), or batched acks read as losses — the
  // classic TCP min-RTO-vs-delayed-ack interaction.
  static constexpr VtDur kMinRto = vt_ms(5);
  // Duplicate standalone acks that trigger a fast retransmit.
  static constexpr std::uint32_t kDupAckThreshold = 3;
  // A streak of this many duplicate data arrivals means our acks are not
  // reaching the peer (it keeps retransmitting the same head). Each time
  // the streak hits the threshold the layer calls
  // LayerOps::notify_unreachable_peer() so the engine can fall back to
  // shipping full connection identification (cookie-epoch recovery).
  static constexpr std::uint32_t kDupNotifyThreshold = 3;

  explicit WindowLayer(WindowConfig cfg) : cfg_(cfg) {}

  LayerKind kind() const override { return LayerKind::kWindow; }
  std::string_view name() const override { return "window"; }
  // Standalone acks: re-emitted by the ack-every counter and the delayed-ack
  // timer, and the ack gossip also piggybacks on data — shed only at
  // Critical.
  ShedClass shed_class() const override { return ShedClass::kGossipAck; }

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
  std::uint64_t sync_digest() const override;

  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix) const override;

  struct Stats {
    PA_STAT_FIELDS(PA_WINDOW_STATS)
  };
  const Stats& stats() const { return stats_; }

  std::uint32_t in_flight() const { return next_seq_ - base_; }
  std::uint32_t size() const { return cfg_.size; }
  std::uint32_t next_seq() const { return next_seq_; }
  std::uint32_t expected_seq() const { return expected_; }
  /// The stored retransmission copy of unacknowledged message `off`
  /// (0 = the oldest), or null past in_flight().
  const Message* unacked(std::uint32_t off) const {
    return off < in_flight() ? &sent(off)->msg : nullptr;
  }

  // RTT-estimator introspection (regression tests pin the arithmetic).
  VtDur srtt() const { return srtt_; }
  VtDur rttvar() const { return rttvar_; }
  VtDur effective_rto() const { return current_rto(); }

  /// The Jacobson/Karels update step (first sample: srtt = s, rttvar = s/2;
  /// then alpha = 1/8, beta = 1/4). Static so tests can pin the arithmetic
  /// against hand-computed sequences.
  static void rtt_update(VtDur sample, VtDur& srtt, VtDur& rttvar);

 private:
  enum WType : std::uint64_t { kData = 0, kAck = 1 };

  /// Serial-number comparison (wrap-safe).
  static bool seq_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }

  void emit_ack(LayerOps& ops);
  void arm_rto(LayerOps& ops);
  void arm_ack_timer(LayerOps& ops);
  void process_ack(std::uint64_t ack, LayerOps& ops);
  void process_sack(std::uint32_t ack, std::uint64_t bitmap);
  std::uint64_t stash_bitmap() const;
  void write_gossip(HeaderView& hdr) const;
  void rtt_sample(VtDur sample);
  void grow_sent_ring();
  VtDur current_rto() const;
  VtDur backoff_deadline();

  WindowConfig cfg_;
  Rng jitter_rng_{cfg_.jitter_seed};

  FieldHandle f_type_{};  // proto-spec, 2 bits
  FieldHandle f_seq_{};   // proto-spec, 32 bits
  FieldHandle f_rex_{};   // proto-spec, 1 bit: retransmission marker
  FieldHandle f_ack_{};   // gossip, 32 bits: cumulative ack
  FieldHandle f_sack_{};  // gossip, 32 bits: stash bitmap (if selective_ack)
  FieldHandle f_wsize_{}; // conn-ident, 8 bits: agreed window size

  // --- sender state ---
  struct SentEntry {
    Message msg;
    Vt sent_at;
    bool sacked = false;       // peer holds it in its stash (SACK extension)
    bool retransmitted = false;  // Karn: no RTT sample from this one
  };

  std::uint32_t next_seq_ = cfg_.initial_seq;
  std::uint32_t base_ = cfg_.initial_seq;  // lowest unacked
  // Unacked messages, one per sequence in [base_, next_seq_), so the ring
  // holds in_flight() entries. The entry for `seq` is sent(seq - base_)
  // (wrap-safe in 32-bit arithmetic). The capacity is a power of two.
  std::vector<std::optional<SentEntry>> sent_ring_;
  std::size_t sent_head_ = 0;  // slot of base_
  std::optional<SentEntry>& sent(std::uint32_t off) {
    return sent_ring_[(sent_head_ + off) & (sent_ring_.size() - 1)];
  }
  const std::optional<SentEntry>& sent(std::uint32_t off) const {
    return sent_ring_[(sent_head_ + off) & (sent_ring_.size() - 1)];
  }
  bool send_disabled_ = false;
  bool rto_armed_ = false;
  Vt rto_fire_at_ = 0;            // when the armed timer is due
  std::uint64_t rto_epoch_ = 0;   // stale-timer invalidation
  std::uint32_t rto_shift_ = 0;   // exponential backoff state
  VtDur armed_deadline_ = 0;      // deadline the armed timer was drawn for
  VtDur last_backoff_ = 0;        // decorrelated-jitter state (0 = fresh)
  std::uint32_t dup_acks_ = 0;    // consecutive non-advancing standalone acks
  bool fast_recovery_ = false;    // fired a fast rexmit; wait for progress
  VtDur srtt_ = 0;                // smoothed RTT (0 = no sample yet)
  VtDur rttvar_ = 0;

  // --- receiver state ---
  std::uint32_t expected_ = cfg_.initial_seq;
  std::map<std::uint32_t, Message, SerialLess> stash_;
  std::uint32_t recv_since_ack_ = 0;
  std::uint32_t dup_streak_ = 0;  // consecutive duplicate data arrivals
  bool ack_timer_armed_ = false;
  bool sent_data_since_ack_arm_ = false;

  Stats stats_;
};

}  // namespace pa
