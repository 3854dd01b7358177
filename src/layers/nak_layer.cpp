#include "layers/nak_layer.h"

#include "obs/bridge.h"

namespace pa {

void NakLayer::init(LayerInit& ctx) {
  LayoutRegistry& reg = ctx.layout;
  f_type_ = reg.add_field(FieldClass::kProtoSpec, "ntype", 1);
  f_seq_ = reg.add_field(FieldClass::kProtoSpec, "nseq", 32);
  f_rex_ = reg.add_field(FieldClass::kProtoSpec, "nrex", 1);
  f_miss_ = reg.add_field(FieldClass::kGossip, "nak_missing", 32);
}

SendVerdict NakLayer::pre_send(Message&, HeaderView& hdr) const {
  hdr.set(f_type_, kData);
  hdr.set(f_seq_, next_seq_);
  hdr.set(f_rex_, 0);
  hdr.set(f_miss_, 0);
  return SendVerdict::kOk;
}

DeliverVerdict NakLayer::pre_deliver(const Message&,
                                     const HeaderView& hdr) const {
  if (hdr.get(f_type_) == kNak) return DeliverVerdict::kConsume;
  const auto seq = static_cast<std::uint32_t>(hdr.get(f_seq_));
  if (seq == expected_) return DeliverVerdict::kDeliver;
  if (seq_lt(seq, expected_)) return DeliverVerdict::kDrop;
  return DeliverVerdict::kConsume;  // gap: stash + nak
}

void NakLayer::post_send(const Message& msg, const HeaderView&,
                         LayerOps&) {
  history_.emplace(next_seq_, msg.share());
  ++next_seq_;
  ++stats_.data_sent;
  while (history_.size() > kHistory) history_.erase(history_.begin());
}

void NakLayer::post_deliver(Message& msg, const HeaderView& hdr,
                            DeliverVerdict verdict, LayerOps& ops) {
  switch (verdict) {
    case DeliverVerdict::kDeliver: {
      ++expected_;
      ++stats_.data_delivered;
      head_retry_count_ = 0;  // head gap (if any) moved
      auto it = stash_.find(expected_);
      while (it != stash_.end()) {
        Message next = std::move(it->second);
        stash_.erase(it);
        ++expected_;
        ++stats_.data_delivered;
        ops.release_up(std::move(next));
        it = stash_.find(expected_);
      }
      break;
    }
    case DeliverVerdict::kConsume: {
      if (hdr.get(f_type_) == kNak) {
        ++stats_.naks_received;
        const auto missing =
            static_cast<std::uint32_t>(hdr.get(f_miss_));
        auto it = history_.find(missing);
        if (it == history_.end()) {
          ++stats_.unrepairable;
        } else {
          ++stats_.repairs;
          ops.resend_raw(it->second,
                         [this](HeaderView& h) { h.set(f_rex_, 1); });
        }
        break;
      }
      const auto seq = static_cast<std::uint32_t>(hdr.get(f_seq_));
      stash_.emplace(seq, std::move(msg));
      // Request the head of the gap now; the timer re-requests until the
      // gap closes (NAKs themselves can be lost).
      emit_nak(expected_, ops);
      arm_renak(ops);
      break;
    }
    case DeliverVerdict::kDrop:
      ++stats_.duplicates;
      break;
  }
}

void NakLayer::emit_nak(std::uint32_t missing, LayerOps& ops) {
  ++stats_.naks_sent;
  Message nak;
  nak.cb.protocol = true;
  // NAKs are "unusual messages" in the paper's sense: they carry the
  // connection identification so they route even if our cookie was never
  // learned (e.g. every prior reverse frame was lost).
  ops.emit_down(
      std::move(nak),
      [this, missing](HeaderView& hdr) {
        hdr.set(f_type_, kNak);
        hdr.set(f_seq_, 0);
        hdr.set(f_rex_, 0);
        hdr.set(f_miss_, missing);
      },
      /*unusual=*/true);
}

void NakLayer::arm_renak(LayerOps& ops) {
  if (renak_armed_ || stalled_) return;
  renak_armed_ = true;
  ops.set_timer(kRenakInterval, [this](LayerOps& t) {
    renak_armed_ = false;
    if (stash_.empty() || stalled_) return;  // gap closed or given up
    if (++head_retry_count_ > kMaxNakRetries) {
      // The peer can no longer have this message: abandon rather than
      // livelock. The stream is permanently stalled at `expected_`.
      stalled_ = true;
      ++stats_.gaps_abandoned;
      return;
    }
    // Re-request missing sequences below the highest stashed one, a
    // bounded burst per fire.
    std::uint32_t top = stash_.rbegin()->first;
    std::uint32_t burst = 0;
    for (std::uint32_t s = expected_;
         seq_lt(s, top) && burst < kMaxNaksPerFire; ++s) {
      if (!stash_.contains(s)) {
        emit_nak(s, t);
        ++burst;
      }
    }
    arm_renak(t);
  });
}

void NakLayer::predict_send(HeaderView& hdr) const {
  hdr.set(f_type_, kData);
  hdr.set(f_seq_, next_seq_);
  hdr.set(f_rex_, 0);
  hdr.set(f_miss_, 0);
}

void NakLayer::predict_deliver(HeaderView& hdr) const {
  hdr.set(f_type_, kData);
  hdr.set(f_seq_, expected_);
  hdr.set(f_rex_, 0);
}

void NakLayer::bind_stats(obs::MetricsRegistry& reg,
                         const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
  reg.gauge_fn(prefix + "_stalled",
               "1 when the NAK protocol is terminally stalled", "",
               [this] { return stalled_ ? 1.0 : 0.0; });
}

std::uint64_t NakLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, next_seq_);
  h = digest_mix(h, expected_);
  h = digest_mix(h, history_.size());
  h = digest_mix(h, stash_.size());
  h = digest_mix(h, renak_armed_ ? 1 : 0);
  h = digest_mix(h, head_retry_count_);
  h = digest_mix(h, stalled_ ? 1 : 0);
  h = digest_mix(h, stats_.data_sent);
  h = digest_mix(h, stats_.data_delivered);
  h = digest_mix(h, stats_.naks_sent);
  h = digest_mix(h, stats_.naks_received);
  h = digest_mix(h, stats_.repairs);
  h = digest_mix(h, stats_.duplicates);
  return h;
}

}  // namespace pa
