#include "layers/bottom_layer.h"

#include "filter/interp.h"
#include "obs/bridge.h"

namespace pa {

void BottomLayer::init(LayerInit& ctx) {
  LayoutRegistry& reg = ctx.layout;
  for (std::size_t i = 0; i < 4; ++i) {
    f_src_[i] = reg.add_field(FieldClass::kConnId, "src_addr", 64);
    f_dst_[i] = reg.add_field(FieldClass::kConnId, "dst_addr", 64);
  }
  f_group_ = reg.add_field(FieldClass::kConnId, "group", 64);
  f_version_ = reg.add_field(FieldClass::kConnId, "version", 32);

  f_len_ = reg.add_field(FieldClass::kMsgSpec, "length", 16);
  f_cksum_ = reg.add_field(FieldClass::kMsgSpec, "checksum", 32);

  // Send filter: fill in the message-specific fields (POP_FIELD stores —
  // the unusual send-side filter of §3.3). Length first so the digest (which
  // masks out msg-spec bits) is order-independent.
  //
  // The checksum is wide: it covers the predictable header regions
  // (proto-spec, gossip, packing), not just the payload as in the paper. A
  // corrupted sequence number is otherwise *silently accepted* — the frame
  // lands in the wrong window slot and the stream misdelivers. It costs a
  // few dozen extra digested bytes per frame.
  ctx.send_filter.push_size().pop_field(f_len_);
  ctx.send_filter.digest(/*wide=*/true).pop_field(f_cksum_);

  // Receive filter: verify them; 0 = drop.
  ctx.recv_filter.push_size().push_field(f_len_).op(FilterOp::kNe).abort_if(0);
  ctx.recv_filter.push_field(f_cksum_).digest(/*wide=*/true)
      .op(FilterOp::kNe).abort_if(0);
}

void BottomLayer::write_conn_ident(HeaderView& hdr, bool incoming) const {
  const Address& src = incoming ? cfg_.remote : cfg_.local;
  const Address& dst = incoming ? cfg_.local : cfg_.remote;
  for (std::size_t i = 0; i < 4; ++i) {
    hdr.set(f_src_[i], src.words[i]);
    hdr.set(f_dst_[i], dst.words[i]);
  }
  hdr.set(f_group_, cfg_.group);
  hdr.set(f_version_, kVersion);
}

bool BottomLayer::match_conn_ident(const HeaderView& hdr) const {
  for (std::size_t i = 0; i < 4; ++i) {
    if (hdr.get(f_src_[i]) != cfg_.remote.words[i]) return false;
    if (hdr.get(f_dst_[i]) != cfg_.local.words[i]) return false;
  }
  return hdr.get(f_group_) == cfg_.group && hdr.get(f_version_) == kVersion;
}

SendVerdict BottomLayer::pre_send(Message& msg, HeaderView& hdr) const {
  // Slow path (no send filter ran): write the message-specific fields here.
  // Must match the send filter's StoreDigest bit for bit.
  hdr.set(f_len_, msg.payload_len());
  hdr.set(f_cksum_, wide_digest(hdr, msg));
  return SendVerdict::kOk;
}

DeliverVerdict BottomLayer::pre_deliver(const Message& msg,
                                        const HeaderView& hdr) const {
  // Under the PA the receive filter already verified these; under the
  // classic engine this is where verification lives.
  if (hdr.get(f_len_) != msg.payload_len()) return DeliverVerdict::kDrop;
  if (hdr.get(f_cksum_) != wide_digest(hdr, msg)) {
    return DeliverVerdict::kDrop;
  }
  return DeliverVerdict::kDeliver;
}

void BottomLayer::post_send(const Message&, const HeaderView&, LayerOps&) {
  ++stats_.sent;
}

void BottomLayer::post_deliver(Message& msg, const HeaderView& hdr,
                               DeliverVerdict verdict, LayerOps&) {
  if (verdict == DeliverVerdict::kDeliver) {
    ++stats_.delivered;
  } else if (verdict == DeliverVerdict::kDrop) {
    if (hdr.get(f_len_) != msg.payload_len()) {
      ++stats_.length_drops;
    } else {
      ++stats_.checksum_drops;
    }
  }
}

void BottomLayer::predict_send(HeaderView&) const {
  // No protocol-specific or gossip fields: message-specific info cannot be
  // predicted; the send filter computes it (paper §3.2-3.3).
}

void BottomLayer::predict_deliver(HeaderView&) const {}

void BottomLayer::bind_stats(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
}

std::uint64_t BottomLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, stats_.sent);
  h = digest_mix(h, stats_.delivered);
  h = digest_mix(h, stats_.checksum_drops);
  h = digest_mix(h, stats_.length_drops);
  return h;
}

}  // namespace pa
