#include "classic/engine.h"

#include <cassert>
#include <cstring>

namespace pa {

class ClassicEngine::Ops final : public LayerOps {
 public:
  Ops(ClassicEngine* e, std::size_t layer) : e_(e), layer_(layer) {}

  Vt now() const override { return e_->env_.now(); }

  void emit_down(Message msg, std::function<void(HeaderView&)> fill,
                 bool unusual) override {
    (void)unusual;  // classic frames always carry the full identification
    e_->emit_down(layer_, std::move(msg), fill);
  }

  void resend_raw(const Message& msg,
                  std::function<void(HeaderView&)> patch) override {
    e_->resend_raw(msg, patch);
  }

  void release_up(Message msg) override {
    e_->release_buckets_[layer_].push_back(std::move(msg));
  }

  void set_timer(VtDur delay, std::function<void(LayerOps&)> cb) override {
    e_->set_layer_timer(layer_, delay, std::move(cb));
  }

  void disable_send() override { ++e_->disable_send_; }
  void enable_send() override {
    assert(e_->disable_send_ > 0);
    if (--e_->disable_send_ == 0) e_->flush_queue();
  }
  void disable_deliver() override {}
  void enable_deliver() override {}

 private:
  ClassicEngine* e_;
  std::size_t layer_;
};

ClassicEngine::ClassicEngine(ClassicConfig cfg, Env& env)
    : cfg_(std::move(cfg)), env_(env),
      virtual_clock_(env.clock_is_virtual()), stack_(cfg_.stack.spec),
      sampler_(virtual_clock_) {
  stack_.init();
  layout_ = stack_.registry().compile(LayoutMode::kClassic);
  region_off_.resize(layout_.num_regions());
  std::size_t off = 0;
  // In classic mode the wire carries one header region per layer; a
  // trailing "(engine)" region would only exist if the engine registered
  // fields, which this engine does not.
  assert(layout_.num_regions() == stack_.size());
  for (std::size_t r = 0; r < layout_.num_regions(); ++r) {
    region_off_[r] = off;
    off += layout_.region_bytes(r);
  }
  total_hdr_ = off;
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (stack_.layer(i).has_frame_codec()) codec_layers_.push_back(i);
    if (deliver_transform_ == SIZE_MAX &&
        stack_.layer(i).has_deliver_transform()) {
      deliver_transform_ = i;
    }
  }
}

HeaderView ClassicEngine::bind(const std::uint8_t* base, Endian wire) const {
  HeaderView v(&layout_, wire);
  for (std::size_t r = 0; r < region_off_.size(); ++r) {
    v.set_region(r, const_cast<std::uint8_t*>(base) + region_off_[r]);
  }
  return v;
}

void ClassicEngine::send(std::span<const std::uint8_t> payload) {
  ++stats_.app_sends;
  Message m = Message::with_payload(payload);
  env_.on_alloc(m.capacity());
  submit(std::move(m));
}

void ClassicEngine::submit(Message m) {
  // Send-side transformation (compression, fragmentation). Recursive, like
  // PaEngine::submit: a compressed message may still exceed the fragment
  // threshold, and each fragment inherits the part's control block.
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    std::vector<Message> parts = stack_.layer(i).transform_send(m);
    if (!parts.empty()) {
      for (Message& p : parts) {
        env_.on_alloc(p.capacity());
        submit(std::move(p));
      }
      return;
    }
  }
  if (disable_send_ > 0 || in_send_) {
    ++stats_.backlogged;
    queue_.push_back(std::move(m));
    return;
  }
  process_send(std::move(m));
}

void ClassicEngine::process_send(Message m) {
  const bool is_timed = sampler_.timed(kTimeSend);
  const Vt t0 = is_timed ? env_.now() : 0;
  in_send_ = true;
  ++stats_.slow_sends;  // every classic send is a full-stack send
  if (virtual_clock_) {
    env_.charge(cfg_.costs.classic_send_cost(stack_.size()));
  }

  std::uint8_t* h = m.push(total_hdr_);
  std::memset(h, 0, total_hdr_);
  HeaderView v = bind(m.front(), cfg_.self_endian);

  // Conventional stacks carry the full identification every message.
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    stack_.layer(i).write_conn_ident(v, /*incoming=*/false);
  }
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (stack_.layer(i).pre_send(m, v) == SendVerdict::kRefuse) {
      m.pop(total_hdr_);
      queue_.push_front(std::move(m));
      in_send_ = false;
      return;
    }
    if (stack_.layer(i).has_frame_codec()) {
      // Seal the frame right after the codec layer's pre_send wrote its
      // varying fields (nonce) and before the bottom checksums it.
      stack_.layer(i).encode_frame(m, v);
    }
  }
  ++stats_.frames_out;
  ++stats_.conn_ident_sent;
  env_.send_frame(m.to_wire());
  // The span ends as the frame leaves, before the inline post phases.
  if (is_timed) {
    obs::span(obs::SpanKind::kSendSlow, t0, obs::span_dur(env_.now() - t0),
              static_cast<std::uint32_t>(m.payload_len()), obs_id_);
  }
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    Ops ops(this, i);
    stack_.layer(i).post_send(m, v, ops);
  }
  in_send_ = false;
  drain_releases();
  flush_queue();
}

void ClassicEngine::flush_queue() {
  while (!queue_.empty() && disable_send_ == 0 && !in_send_) {
    Message m = std::move(queue_.front());
    queue_.pop_front();
    process_send(std::move(m));
  }
}

void ClassicEngine::on_frame(WireFrame frame, Vt) {
  ++stats_.frames_in;
  if (frame.size() < total_hdr_) {
    stats_.drops.bump(DropReason::kTruncatedHeader);
    return;
  }
  const bool is_timed = sampler_.timed(kTimeFrame);
  const Vt t0 = is_timed ? env_.now() : 0;
  if (virtual_clock_) env_.charge(cfg_.costs.classic_demux);
  Message m = Message::from_wire(std::move(frame));
  env_.on_alloc(m.capacity());
  m.set_header_len(total_hdr_);
  m.cb.wire_endian = static_cast<std::uint8_t>(cfg_.peer_endian);
  env_.on_reception();
  const bool delivered = deliver_msg(std::move(m), stack_.size(), is_timed);
  if (is_timed) {
    obs::span(obs::SpanKind::kDeliverSlow, t0, obs::span_dur(env_.now() - t0),
              delivered ? 1 : 0, obs_id_);
  }
  env_.gc_point();
  flush_queue();
}

/// Run the delivery phases for layers above `entered_below` (exclusive).
/// `timed`: mark the hand-up to the application with a span. True if the
/// message reached the application.
bool ClassicEngine::deliver_msg(Message m, std::size_t entered_below,
                                bool timed) {
  if (virtual_clock_) {
    env_.charge(cfg_.costs.classic_deliver_cost(entered_below));
  }
  HeaderView v = bind(m.front(), cfg_.peer_endian);

  std::size_t stop = entered_below;  // will move to the lowest layer reached
  DeliverVerdict verdict = DeliverVerdict::kDeliver;
  for (std::size_t i = entered_below; i-- > 0;) {
    verdict = stack_.layer(i).pre_deliver(m, v);
    stop = i;
    if (verdict != DeliverVerdict::kDeliver) {
      // Count the drops the PA counts for the same frames: in its receive
      // filter (bottom length/checksum) and in its slow path (relay hop).
      if (verdict == DeliverVerdict::kDrop) {
        const LayerKind kind = stack_.layer(i).kind();
        if (kind == LayerKind::kBottom) {
          stats_.drops.bump(DropReason::kChecksumFilter);
        } else if (kind == LayerKind::kRelay) {
          stats_.drops.bump(DropReason::kMisroutedHop);
        }
      }
      break;
    }
    if (stack_.layer(i).has_frame_codec() &&
        !stack_.layer(i).decode_frame(m, v)) {
      stats_.drops.bump(DropReason::kAeadAuth);
      verdict = DeliverVerdict::kDrop;
      break;
    }
  }
  const bool to_app =
      verdict == DeliverVerdict::kDeliver && entered_below > 0;
  if (to_app) {
    ++stats_.slow_delivers;
    mark(timed, obs::SpanKind::kDeliverApp, env_);
    deliver_part(m.payload());
  }
  for (std::size_t i = entered_below; i-- > stop;) {
    Ops ops(this, i);
    DeliverVerdict vd = (i == stop) ? verdict : DeliverVerdict::kDeliver;
    stack_.layer(i).post_deliver(m, v, vd, ops);
  }
  drain_releases();
  return to_app;
}

void ClassicEngine::drain_releases() {
  while (!release_buckets_.empty()) {
    auto bucket = release_buckets_.begin();
    const std::size_t from = bucket->first;
    Message m = std::move(bucket->second.front());
    bucket->second.pop_front();
    if (bucket->second.empty()) release_buckets_.erase(bucket);
    if (from == 0 || m.header_len() == 0) {
      // Released at the top, or a synthesized (reassembled) message.
      deliver_part(m.payload());
      continue;
    }
    deliver_msg(std::move(m), from, sampler_.timed(kTimeRelease));
  }
}

void ClassicEngine::deliver_part(std::span<const std::uint8_t> part) {
  if (deliver_transform_ != SIZE_MAX) {
    std::span<const std::uint8_t> res;
    if (!stack_.layer(deliver_transform_).decode_part(part, res,
                                                      part_scratch_)) {
      stats_.drops.bump(DropReason::kCompCodec);
      return;
    }
    ++stats_.delivered_to_app;
    env_.deliver(res);
    return;
  }
  ++stats_.delivered_to_app;
  env_.deliver(part);
}

void ClassicEngine::emit_down(std::size_t from_layer, Message m,
                              const std::function<void(HeaderView&)>& fill) {
  ++stats_.protocol_emits;
  env_.on_alloc(m.capacity());
  m.cb.protocol = true;
  if (virtual_clock_) {
    env_.charge(cfg_.costs.classic_send_cost(stack_.size() - from_layer - 1));
  }

  std::uint8_t* h = m.push(total_hdr_);
  std::memset(h, 0, total_hdr_);
  HeaderView v = bind(m.front(), cfg_.self_endian);
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    stack_.layer(i).write_conn_ident(v, /*incoming=*/false);
  }
  fill(v);
  for (std::size_t i = from_layer + 1; i < stack_.size(); ++i) {
    if (stack_.layer(i).pre_send(m, v) == SendVerdict::kRefuse) return;
    if (stack_.layer(i).has_frame_codec()) {
      stack_.layer(i).encode_frame(m, v);
    }
  }
  ++stats_.frames_out;
  env_.send_frame(m.to_wire());
  mark(sampler_.timed(kTimeProto), obs::SpanKind::kSendProto, env_);
  for (std::size_t i = from_layer + 1; i < stack_.size(); ++i) {
    Ops ops(this, i);
    stack_.layer(i).post_send(m, v, ops);
  }
}

void ClassicEngine::resend_raw(const Message& stored,
                               const std::function<void(HeaderView&)>& patch) {
  ++stats_.raw_resends;
  Message m = stored.clone();
  env_.on_alloc(m.capacity());
  if (virtual_clock_) env_.charge(cfg_.costs.classic_send_per_layer);
  HeaderView v = bind(m.front(), cfg_.self_endian);
  patch(v);
  // Refresh length + checksum: the patch may touch bits covered by the
  // bottom layer's wide digest (bottom pre-send is idempotent).
  if (stack_.size() > 0) {
    const Layer& last = stack_.layer(stack_.size() - 1);
    if (last.kind() == LayerKind::kBottom) last.pre_send(m, v);
  }
  ++stats_.frames_out;
  env_.send_frame(m.to_wire());
  mark(sampler_.timed(kTimeRexmit), obs::SpanKind::kSendRexmit, env_);
}

void ClassicEngine::set_layer_timer(std::size_t layer, VtDur delay,
                                    std::function<void(LayerOps&)> cb) {
  env_.set_timer(delay, [this, layer, cb = std::move(cb)] {
    if (virtual_clock_) env_.charge(cfg_.costs.timer_cost);
    Ops ops(this, layer);
    cb(ops);
    drain_releases();
    flush_queue();
  });
}

bool ClassicEngine::match_ident(std::span<const std::uint8_t> frame) const {
  if (frame.size() < total_hdr_) return false;
  HeaderView v = bind(frame.data(), cfg_.peer_endian);
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (!stack_.layer(i).match_conn_ident(v)) return false;
  }
  return true;
}

}  // namespace pa
