#include "layers/layer.h"

namespace pa {

void Layer::write_conn_ident(HeaderView&, bool) const {}

bool Layer::match_conn_ident(const HeaderView&) const { return true; }

std::vector<Message> Layer::transform_send(Message&) { return {}; }

void Layer::bind_stats(obs::MetricsRegistry&, const std::string&) const {}

LayerTraits Layer::traits() const {
  // Comp and bottom predict nothing; frag predicts a non-fragment and
  // relay its configured hops: all fixed.
  switch (kind()) {
    case LayerKind::kCustom: return {0, false, false};
    case LayerKind::kComp: return {10, false, false, true};
    case LayerKind::kFrag: return {20, false, false, true};
    case LayerKind::kSeq: return {30, false, false};
    case LayerKind::kWindow: return {40, true, false};
    case LayerKind::kCrypt: return {50, false, false};
    case LayerKind::kRelay: return {60, false, false, true};
    case LayerKind::kBottom: return {100, false, true, true};
  }
  return {0, false, false};
}

bool Layer::encode_frame(Message&, const HeaderView&) const { return true; }

bool Layer::decode_frame(Message&, const HeaderView&) const { return true; }

bool Layer::decode_part(std::span<const std::uint8_t> in,
                        std::span<const std::uint8_t>& res,
                        std::vector<std::uint8_t>&) const {
  res = in;
  return true;
}

}  // namespace pa
