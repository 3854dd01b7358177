// Layer-timing decorator for the traced run.
//
// Wraps one layer and forwards every Layer virtual to it, so composition
// checks (traits), the frame codec and deliver-transform hooks,
// transform_send and both digests behave exactly as for the bare layer;
// only the six canonical phases are timed, each in its own span.
//
// Limits:
//   - used only in the traced run: the untraced run measures bare stacks;
//   - never handed to obs::bind_stack_stats, which static_casts layers by
//     LayerKind and would misread this wrapper;
//   - a wrapped bottom layer is a custom layer to StackSpec::bottom_config()
//     and to RealEndpoint::make_pa, so its addressing must be written into
//     the BottomConfig before wrapping (make_spec in main.cpp does).
// main.cpp's self-check shows the decorated stack's wire frames are
// byte-identical to the plain stack's.
#pragma once

#include <memory>
#include <utility>

#include "layers/layer.h"
#include "trace.h"

namespace wb {

class TimedLayer final : public pa::Layer {
 public:
  /// `slot` is the layer's index in the stack (its span names).
  TimedLayer(std::unique_ptr<pa::Layer> inner, int slot)
      : inner_(std::move(inner)),
        base_(static_cast<std::uint16_t>(kLayerBase + slot * kPhases)) {}

  pa::LayerKind kind() const override { return inner_->kind(); }
  std::string_view name() const override { return inner_->name(); }
  pa::ShedClass shed_class() const override { return inner_->shed_class(); }
  pa::LayerTraits traits() const override { return inner_->traits(); }

  bool has_frame_codec() const override { return inner_->has_frame_codec(); }
  bool encode_frame(pa::Message& msg,
                    const pa::HeaderView& hdr) const override {
    return inner_->encode_frame(msg, hdr);
  }
  bool decode_frame(pa::Message& msg,
                    const pa::HeaderView& hdr) const override {
    return inner_->decode_frame(msg, hdr);
  }
  bool has_deliver_transform() const override {
    return inner_->has_deliver_transform();
  }
  bool decode_part(std::span<const std::uint8_t> in,
                   std::span<const std::uint8_t>& res,
                   std::vector<std::uint8_t>& scratch) const override {
    return inner_->decode_part(in, res, scratch);
  }

  void init(pa::LayerInit& ctx) override { inner_->init(ctx); }
  void write_conn_ident(pa::HeaderView& hdr, bool incoming) const override {
    inner_->write_conn_ident(hdr, incoming);
  }
  bool match_conn_ident(const pa::HeaderView& hdr) const override {
    return inner_->match_conn_ident(hdr);
  }

  pa::SendVerdict pre_send(pa::Message& msg,
                           pa::HeaderView& hdr) const override {
    Span s(phase(kPreSend));
    return inner_->pre_send(msg, hdr);
  }
  pa::DeliverVerdict pre_deliver(const pa::Message& msg,
                                 const pa::HeaderView& hdr) const override {
    Span s(phase(kPreDeliver));
    return inner_->pre_deliver(msg, hdr);
  }
  void post_send(const pa::Message& msg, const pa::HeaderView& hdr,
                 pa::LayerOps& ops) override {
    Span s(phase(kPostSend));
    inner_->post_send(msg, hdr, ops);
  }
  void post_deliver(pa::Message& msg, const pa::HeaderView& hdr,
                    pa::DeliverVerdict verdict, pa::LayerOps& ops) override {
    Span s(phase(kPostDeliver));
    inner_->post_deliver(msg, hdr, verdict, ops);
  }
  void predict_send(pa::HeaderView& hdr) const override {
    Span s(phase(kPredictSend));
    inner_->predict_send(hdr);
  }
  void predict_deliver(pa::HeaderView& hdr) const override {
    Span s(phase(kPredictDeliver));
    inner_->predict_deliver(hdr);
  }

  std::vector<pa::Message> transform_send(pa::Message& msg) override {
    return inner_->transform_send(msg);
  }
  std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  std::uint64_t sync_digest() const override { return inner_->sync_digest(); }

 private:
  std::uint16_t phase(Phase p) const {
    return static_cast<std::uint16_t>(base_ + p);
  }

  std::unique_ptr<pa::Layer> inner_;
  std::uint16_t base_;
};

}  // namespace wb
