#include "layers/window_layer.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/bridge.h"

namespace pa {

void WindowLayer::init(LayerInit& ctx) {
  LayoutRegistry& reg = ctx.layout;
  f_type_ = reg.add_field(FieldClass::kProtoSpec, "wtype", 2);
  f_seq_ = reg.add_field(FieldClass::kProtoSpec, "wseq", 32);
  f_rex_ = reg.add_field(FieldClass::kProtoSpec, "wrex", 1);
  f_ack_ = reg.add_field(FieldClass::kGossip, "wack", 32);
  if (cfg_.selective_ack) {
    f_sack_ = reg.add_field(FieldClass::kGossip, "wsack", 32);
  }
  f_wsize_ = reg.add_field(FieldClass::kConnId, "wsize", 8);
  // No message-specific fields: this layer contributes nothing to the
  // packet filters — its whole header is predictable (paper §3.2).
}

void WindowLayer::write_conn_ident(HeaderView& hdr, bool) const {
  hdr.set(f_wsize_, cfg_.size);
}

bool WindowLayer::match_conn_ident(const HeaderView& hdr) const {
  return hdr.get(f_wsize_) == cfg_.size;
}

SendVerdict WindowLayer::pre_send(Message& msg, HeaderView& hdr) const {
  // Protocol messages of layers above are not flow-controlled (they must
  // not deadlock behind a full window).
  if (!msg.cb.protocol && in_flight() >= cfg_.size) {
    return SendVerdict::kRefuse;
  }
  hdr.set(f_type_, kData);
  hdr.set(f_seq_, next_seq_);
  hdr.set(f_rex_, 0);
  write_gossip(hdr);
  return SendVerdict::kOk;
}

void WindowLayer::write_gossip(HeaderView& hdr) const {
  hdr.set(f_ack_, expected_);
  if (cfg_.selective_ack) hdr.set(f_sack_, stash_bitmap());
}

std::uint64_t WindowLayer::stash_bitmap() const {
  std::uint64_t bitmap = 0;
  for (const auto& [seq, msg] : stash_) {
    std::uint32_t off = seq - (expected_ + 1);
    if (off < 32) bitmap |= 1ull << off;
  }
  return bitmap;
}

void WindowLayer::process_sack(std::uint32_t ack, std::uint64_t bitmap) {
  for (std::uint32_t i = 0; i < 32 && bitmap != 0; ++i) {
    if (!(bitmap & (1ull << i))) continue;
    const std::uint32_t off = ack + 1 + i - base_;
    if (off < in_flight()) sent(off)->sacked = true;
  }
}

DeliverVerdict WindowLayer::pre_deliver(const Message&,
                                        const HeaderView& hdr) const {
  if (hdr.get(f_type_) == kAck) return DeliverVerdict::kConsume;
  const auto seq = static_cast<std::uint32_t>(hdr.get(f_seq_));
  if (seq == expected_) return DeliverVerdict::kDeliver;
  if (seq_lt(seq, expected_)) return DeliverVerdict::kDrop;  // duplicate
  return DeliverVerdict::kConsume;                           // out of order
}

void WindowLayer::post_send(const Message& msg, const HeaderView& hdr,
                            LayerOps& ops) {
  assert(static_cast<std::uint32_t>(hdr.get(f_seq_)) == next_seq_);
  (void)hdr;
  // Save for retransmission: the stored copy is the complete wire message
  // (headers included), resent on timeout. A share(): the headers are
  // final, and resend_raw clones before it patches the retransmit bit.
  if (in_flight() == sent_ring_.size()) grow_sent_ring();
  sent(in_flight()) = SentEntry{msg.share(), ops.now()};
  ++next_seq_;
  ++stats_.data_sent;
  recv_since_ack_ = 0;  // this message piggybacked our current ack
  sent_data_since_ack_arm_ = true;
  arm_rto(ops);
  if (!send_disabled_ && in_flight() >= cfg_.size) {
    send_disabled_ = true;
    ++stats_.window_stalls;
    ops.disable_send();
  }
}

void WindowLayer::process_ack(std::uint64_t ack64, LayerOps& ops) {
  const auto ack = static_cast<std::uint32_t>(ack64);
  // Gossip may be stale (paper §2.1: out-of-date gossip must be harmless).
  if (!seq_lt(base_, ack)) return;
  if (seq_lt(next_seq_, ack)) return;  // nonsense ack: ignore
  while (seq_lt(base_, ack)) {
    std::optional<SentEntry>& head = sent(0);
    // Karn's rule: only never-retransmitted messages yield RTT samples.
    if (cfg_.adaptive_rto && !head->retransmitted) {
      rtt_sample(ops.now() - head->sent_at);
    }
    head.reset();
    sent_head_ = (sent_head_ + 1) & (sent_ring_.size() - 1);
    ++base_;
  }
  rto_shift_ = 0;  // forward progress: reset the retransmission backoff
  dup_acks_ = 0;
  fast_recovery_ = false;
  // Restart the retransmission timer against the new head (and any fresher
  // RTT estimate).
  if (in_flight() > 0) arm_rto(ops);
  if (send_disabled_ && in_flight() < cfg_.size) {
    send_disabled_ = false;
    ops.enable_send();
  }
}

void WindowLayer::post_deliver(Message& msg, const HeaderView& hdr,
                               DeliverVerdict verdict, LayerOps& ops) {
  // Gossip processing happens for every incoming message, whatever the
  // verdict — acks ride on data, duplicates and pure acks alike.
  process_ack(hdr.get(f_ack_), ops);
  if (cfg_.selective_ack) {
    process_sack(static_cast<std::uint32_t>(hdr.get(f_ack_)),
                 hdr.get(f_sack_));
  }

  switch (verdict) {
    case DeliverVerdict::kDeliver: {
      dup_streak_ = 0;
      ++expected_;
      ++stats_.data_delivered;
      ++recv_since_ack_;
      // Release any stashed messages that are now in order.
      auto it = stash_.find(expected_);
      while (it != stash_.end()) {
        Message next = std::move(it->second);
        stash_.erase(it);
        ++expected_;
        ++stats_.data_delivered;
        ++recv_since_ack_;
        ops.release_up(std::move(next));
        it = stash_.find(expected_);
      }
      break;
    }
    case DeliverVerdict::kConsume:
      if (hdr.get(f_type_) == kAck) {
        ++stats_.acks_received;
        // Fast retransmit: a standalone ack that does not advance the
        // window while data is outstanding is the receiver telling us it
        // got something out of order — after a few of those, the head is
        // almost certainly lost. (Only standalone acks count: piggybacked
        // gossip on data can be stale without meaning loss.)
        if (cfg_.fast_retransmit && in_flight() > 0 && !fast_recovery_ &&
            static_cast<std::uint32_t>(hdr.get(f_ack_)) == base_) {
          if (++dup_acks_ >= kDupAckThreshold) {
            dup_acks_ = 0;
            fast_recovery_ = true;  // one shot until the window advances
            // With SACK, repair the holes *below the highest sacked
            // sequence* — anything above it may simply still be in flight.
            // Without SACK only the head is known-missing.
            std::uint32_t repair_below = base_ + 1;  // head only
            if (cfg_.selective_ack) {
              for (std::uint32_t i = 0; i < in_flight(); ++i) {
                if (sent(i)->sacked) repair_below = base_ + i;
              }
            }
            for (std::uint32_t i = 0; i < in_flight(); ++i) {
              if (!seq_lt(base_ + i, repair_below)) break;
              SentEntry& entry = *sent(i);
              if (entry.sacked) continue;
              ++stats_.fast_retransmits;
              ++stats_.retransmits;
              entry.sent_at = ops.now();
              entry.retransmitted = true;
              ops.resend_raw(entry.msg,
                             [this](HeaderView& h) { h.set(f_rex_, 1); });
            }
          }
        }
      } else {
        const auto seq = static_cast<std::uint32_t>(hdr.get(f_seq_));
        if (stash_.emplace(seq, std::move(msg)).second) ++stats_.stashed;
        // A gap exists: make sure the peer learns our ack state promptly so
        // its retransmission logic converges.
        recv_since_ack_ = cfg_.ack_every;
      }
      break;
    case DeliverVerdict::kDrop:
      ++stats_.duplicates;
      // The peer retransmitted: our ack likely got lost — re-ack now.
      recv_since_ack_ = cfg_.ack_every;
      // A long streak of the same duplicate means our acks are not getting
      // through at all — possibly because the peer's router no longer knows
      // our cookie (we restarted). Tell the engine.
      if (++dup_streak_ >= kDupNotifyThreshold) {
        dup_streak_ = 0;
        ops.notify_unreachable_peer();
      }
      break;
  }

  if (recv_since_ack_ >= cfg_.ack_every) {
    emit_ack(ops);
  } else if (recv_since_ack_ > 0) {
    arm_ack_timer(ops);
  }
}

void WindowLayer::emit_ack(LayerOps& ops) {
  recv_since_ack_ = 0;
  ++stats_.acks_sent;
  Message ack;
  ack.cb.protocol = true;
  ops.emit_down(std::move(ack), [this](HeaderView& hdr) {
    hdr.set(f_type_, kAck);
    hdr.set(f_seq_, 0);
    hdr.set(f_rex_, 0);
    write_gossip(hdr);
  });
}

VtDur WindowLayer::backoff_deadline() {
  VtDur deadline = current_rto() << rto_shift_;
  if (rto_shift_ == 0) {
    last_backoff_ = 0;  // forward progress (or first timeout): fresh state
    return deadline;
  }
  // Decorrelated jitter: spread repeat retransmissions (and the cookie-epoch
  // recovery probes that ride them) so peers recovering from the same event
  // do not re-probe in lockstep; the first timeout keeps the estimator's
  // exact value. next = min(cap, uniform(rto, 3*prev)), per the classic
  // exponential-backoff-and-jitter analysis.
  const VtDur base = current_rto();
  const VtDur cap = current_rto() << kMaxRtoShift;
  const VtDur prev = last_backoff_ > 0 ? last_backoff_ : deadline;
  VtDur hi = prev * 3;
  if (hi < base) hi = base;
  VtDur next = jitter_rng_.next_range(base, hi);
  if (next > cap) next = cap;
  last_backoff_ = next;
  return next;
}

void WindowLayer::grow_sent_ring() {
  // The window bounds application messages, but protocol messages of the
  // layers above are not flow-controlled, so the ring can still overfill.
  std::vector<std::optional<SentEntry>> ring(std::max<std::size_t>(
      std::bit_ceil(std::size_t{cfg_.size}), 2 * sent_ring_.size()));
  for (std::uint32_t i = 0; i < in_flight(); ++i) ring[i] = std::move(sent(i));
  sent_ring_ = std::move(ring);
  sent_head_ = 0;
}

void WindowLayer::arm_rto(LayerOps& ops) {
  if (in_flight() == 0) return;
  // The timeout is measured from the *send time of the oldest unacked
  // message* — a timer armed long ago must not fire onto a freshly sent
  // message and retransmit traffic that is merely in flight. With the
  // adaptive estimator the deadline can also *shrink* after arming, so an
  // earlier re-arm supersedes the outstanding timer (epoch check below).
  const VtDur deadline = backoff_deadline();
  Vt fire_at = sent(0)->sent_at + deadline;
  if (fire_at < ops.now()) fire_at = ops.now();
  if (rto_armed_ && fire_at >= rto_fire_at_) return;  // current timer is fine
  rto_armed_ = true;
  rto_fire_at_ = fire_at;
  armed_deadline_ = deadline;
  const std::uint64_t epoch = ++rto_epoch_;
  ops.set_timer(fire_at - ops.now(), [this, epoch](LayerOps& t) {
    if (epoch != rto_epoch_) return;  // superseded by a re-arm
    rto_armed_ = false;
    if (in_flight() == 0) return;
    SentEntry& head = *sent(0);
    // Compare against the deadline this timer was armed with (a jittered
    // draw can sit below the current estimator value; re-deriving it here
    // would make the timer fire "early" against itself and spin).
    if (t.now() - head.sent_at >= armed_deadline_) {
      // Resend only the head of the window, verbatim, marked as a
      // retransmission and carrying the connection identification. The
      // receiver stashes out-of-order successors, so the head is all it
      // can be missing; resending everything would amplify one delayed ack
      // into a duplicate storm.
      ++stats_.retransmits;
      head.sent_at = t.now();
      head.retransmitted = true;
      t.resend_raw(head.msg,
                   [this](HeaderView& hdr) { hdr.set(f_rex_, 1); });
      // Exponential backoff until an ack shows forward progress.
      if (rto_shift_ < kMaxRtoShift) ++rto_shift_;
    }
    arm_rto(t);
  });
}

void WindowLayer::arm_ack_timer(LayerOps& ops) {
  if (ack_timer_armed_) return;
  ack_timer_armed_ = true;
  sent_data_since_ack_arm_ = false;
  ops.set_timer(cfg_.ack_delay, [this](LayerOps& t) {
    ack_timer_armed_ = false;
    if (recv_since_ack_ == 0) return;
    // Reverse data is flowing (request/response traffic): the piggyback on
    // the next outgoing message beats a standalone ack — the perpetual
    // one-reception debt of a ping-pong must not cost an extra frame (and,
    // on the peer, an extra reception + GC) every ack_delay.
    if (sent_data_since_ack_arm_ && recv_since_ack_ < cfg_.ack_every) {
      arm_ack_timer(t);
      return;
    }
    emit_ack(t);
  });
}

void WindowLayer::rtt_update(VtDur sample, VtDur& srtt, VtDur& rttvar) {
  if (srtt == 0) {
    srtt = sample;
    rttvar = sample / 2;
    return;
  }
  // Jacobson/Karels: alpha = 1/8, beta = 1/4.
  VtDur err = sample - srtt;
  srtt += err / 8;
  rttvar += ((err < 0 ? -err : err) - rttvar) / 4;
}

void WindowLayer::rtt_sample(VtDur sample) { rtt_update(sample, srtt_, rttvar_); }

VtDur WindowLayer::current_rto() const {
  if (!cfg_.adaptive_rto || srtt_ == 0) return cfg_.rto;
  VtDur rto = srtt_ + 4 * rttvar_;
  // The floor must dominate the peer's delayed-ack horizon or a quiet tail
  // message reads as a loss (both sides share the config, so ack_delay here
  // is also the peer's).
  VtDur floor = kMinRto;
  if (floor < cfg_.ack_delay + vt_ms(2)) floor = cfg_.ack_delay + vt_ms(2);
  if (rto < floor) rto = floor;
  if (rto > cfg_.rto) rto = cfg_.rto;  // cfg.rto doubles as the ceiling
  return rto;
}

void WindowLayer::predict_send(HeaderView& hdr) const {
  hdr.set(f_type_, kData);
  hdr.set(f_seq_, next_seq_);
  hdr.set(f_rex_, 0);
  write_gossip(hdr);
}

void WindowLayer::predict_deliver(HeaderView& hdr) const {
  hdr.set(f_type_, kData);
  hdr.set(f_seq_, expected_);
  hdr.set(f_rex_, 0);
}

std::uint64_t WindowLayer::sync_digest() const {
  // Commutative send-half + recv-half (see Layer::sync_digest). Unacked
  // messages are send-side pending; on a drained connection there are none
  // and next_seq_ equals the peer's expected_.
  return sync_half(next_seq_, in_flight()) +
         sync_half(expected_, stash_.size());
}

void WindowLayer::bind_stats(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
}

std::uint64_t WindowLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, next_seq_);
  h = digest_mix(h, base_);
  h = digest_mix(h, expected_);
  h = digest_mix(h, in_flight());
  for (std::uint32_t i = 0; i < in_flight(); ++i) {
    if (sent(i)->sacked) h = digest_mix(h, base_ + i);
  }
  h = digest_mix(h, stash_.size());
  h = digest_mix(h, recv_since_ack_);
  h = digest_mix(h, dup_streak_);
  h = digest_mix(h, send_disabled_ ? 1 : 0);
  h = digest_mix(h, rto_armed_ ? 1 : 0);
  h = digest_mix(h, static_cast<std::uint64_t>(rto_fire_at_));
  h = digest_mix(h, rto_shift_);
  h = digest_mix(h, static_cast<std::uint64_t>(srtt_));
  h = digest_mix(h, static_cast<std::uint64_t>(rttvar_));
  h = digest_mix(h, static_cast<std::uint64_t>(armed_deadline_));
  h = digest_mix(h, static_cast<std::uint64_t>(last_backoff_));
  h = digest_mix(h, dup_acks_);
  h = digest_mix(h, fast_recovery_ ? 1 : 0);
  h = digest_mix(h, stats_.fast_retransmits);
  h = digest_mix(h, ack_timer_armed_ ? 1 : 0);
  h = digest_mix(h, sent_data_since_ack_arm_ ? 1 : 0);
  h = digest_mix(h, stats_.data_sent);
  h = digest_mix(h, stats_.data_delivered);
  h = digest_mix(h, stats_.acks_sent);
  h = digest_mix(h, stats_.retransmits);
  h = digest_mix(h, stats_.duplicates);
  h = digest_mix(h, stats_.stashed);
  return h;
}

}  // namespace pa
