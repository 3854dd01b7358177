#include "sim/cost_model.h"

namespace pa {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kBottom: return "bottom";
    case LayerKind::kWindow: return "window";
    case LayerKind::kSeq: return "seq";
    case LayerKind::kFrag: return "frag";
    case LayerKind::kCustom: return "custom";
    case LayerKind::kComp: return "comp";
    case LayerKind::kCrypt: return "crypt";
    case LayerKind::kRelay: return "relay";
  }
  return "?";
}

PhaseCosts CostModel::ml_costs(LayerKind kind) const {
  switch (kind) {
    case LayerKind::kBottom: return ml_bottom;
    case LayerKind::kWindow: return ml_window;
    case LayerKind::kSeq: return ml_seq;
    case LayerKind::kFrag: return ml_frag;
    case LayerKind::kCustom: return ml_custom;
    case LayerKind::kComp: return ml_comp;
    case LayerKind::kCrypt: return ml_crypt;
    case LayerKind::kRelay: return ml_relay;
  }
  return ml_custom;
}

VtDur CostModel::classic_send_cost(std::size_t layers) const {
  return static_cast<VtDur>(static_cast<double>(classic_send_per_layer) *
                            static_cast<double>(layers) *
                            classic_lang_multiplier);
}

VtDur CostModel::classic_deliver_cost(std::size_t layers) const {
  return static_cast<VtDur>(static_cast<double>(classic_deliver_per_layer) *
                            static_cast<double>(layers) *
                            classic_lang_multiplier);
}

CostModel CostModel::paper() { return CostModel{}; }

CostModel CostModel::zero() {
  CostModel m;
  m.pa_send_path = 0;
  m.pa_deliver_path = 0;
  m.pa_per_packed_extra = 0;
  m.pa_backlog_per_msg = 0;
  m.timer_cost = 0;
  m.ml_bottom = m.ml_window = m.ml_seq = m.ml_frag = m.ml_custom =
      m.ml_comp = m.ml_crypt = m.ml_relay = PhaseCosts{};
  m.classic_send_per_layer = 0;
  m.classic_deliver_per_layer = 0;
  m.classic_demux = 0;
  return m;
}

}  // namespace pa
