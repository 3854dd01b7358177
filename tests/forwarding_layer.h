// A test decorator base: owns one layer and forwards every Layer virtual to
// it except bind_stats(), so a wrapped layer composes, predicts and digests
// exactly as the bare one does (traits() included: the PA predicts fixed
// layers once by them). Tests derive from it and override only the calls
// they observe.
#pragma once

#include <memory>
#include <utility>

#include "layers/layer.h"

namespace pa {

class ForwardingLayer : public Layer {
 public:
  explicit ForwardingLayer(std::unique_ptr<Layer> inner)
      : inner_(std::move(inner)) {}

  LayerKind kind() const override { return inner_->kind(); }
  std::string_view name() const override { return inner_->name(); }
  ShedClass shed_class() const override { return inner_->shed_class(); }
  LayerTraits traits() const override { return inner_->traits(); }

  bool has_frame_codec() const override { return inner_->has_frame_codec(); }
  bool encode_frame(Message& msg, const HeaderView& hdr) const override {
    return inner_->encode_frame(msg, hdr);
  }
  bool decode_frame(Message& msg, const HeaderView& hdr) const override {
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

  void init(LayerInit& ctx) override { inner_->init(ctx); }
  void write_conn_ident(HeaderView& hdr, bool incoming) const override {
    inner_->write_conn_ident(hdr, incoming);
  }
  bool match_conn_ident(const HeaderView& hdr) const override {
    return inner_->match_conn_ident(hdr);
  }

  SendVerdict pre_send(Message& msg, HeaderView& hdr) const override {
    return inner_->pre_send(msg, hdr);
  }
  DeliverVerdict pre_deliver(const Message& msg,
                             const HeaderView& hdr) const override {
    return inner_->pre_deliver(msg, hdr);
  }
  void post_send(const Message& msg, const HeaderView& hdr,
                 LayerOps& ops) override {
    inner_->post_send(msg, hdr, ops);
  }
  void post_deliver(Message& msg, const HeaderView& hdr,
                    DeliverVerdict verdict, LayerOps& ops) override {
    inner_->post_deliver(msg, hdr, verdict, ops);
  }
  void predict_send(HeaderView& hdr) const override {
    inner_->predict_send(hdr);
  }
  void predict_deliver(HeaderView& hdr) const override {
    inner_->predict_deliver(hdr);
  }

  std::vector<Message> transform_send(Message& msg) override {
    return inner_->transform_send(msg);
  }
  std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  std::uint64_t sync_digest() const override { return inner_->sync_digest(); }

 protected:
  const Layer& inner() const { return *inner_; }

 private:
  std::unique_ptr<Layer> inner_;
};

}  // namespace pa
