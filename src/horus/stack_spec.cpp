#include "horus/stack_spec.h"

#include <stdexcept>

namespace pa {

LayerSpec LayerSpec::custom(std::function<std::unique_ptr<Layer>()> make) {
  return {.type = Type::kCustom, .make_custom = std::move(make)};
}

LayerSpec LayerSpec::comp_layer() {
  return {.type = Type::kComp};
}

LayerSpec LayerSpec::frag_layer(FragConfig cfg) {
  return {.type = Type::kFrag, .frag = cfg};
}

LayerSpec LayerSpec::seq_layer(std::uint32_t initial_seq) {
  return {.type = Type::kSeq, .initial_seq = initial_seq};
}

LayerSpec LayerSpec::window_layer(WindowConfig cfg) {
  return {.type = Type::kWindow, .window = cfg};
}

LayerSpec LayerSpec::nak_layer() {
  return {.type = Type::kNak};
}

LayerSpec LayerSpec::crypt_layer(CryptConfig cfg) {
  return {.type = Type::kCrypt, .crypt = cfg};
}

LayerSpec LayerSpec::relay_layer(RelayConfig cfg) {
  return {.type = Type::kRelay, .relay = cfg};
}

LayerSpec LayerSpec::bottom_layer(BottomConfig cfg) {
  return {.type = Type::kBottom, .bottom = cfg};
}

std::unique_ptr<Layer> LayerSpec::build() const {
  switch (type) {
    case Type::kCustom:
      if (!make_custom) {
        throw std::invalid_argument(
            "StackSpec: custom layer spec has no factory — construct it via "
            "LayerSpec::custom(make_fn)");
      }
      return make_custom();
    case Type::kComp: return std::make_unique<CompLayer>();
    case Type::kFrag: return std::make_unique<FragLayer>(frag);
    case Type::kSeq: return std::make_unique<SeqLayer>(initial_seq);
    case Type::kWindow: return std::make_unique<WindowLayer>(window);
    case Type::kNak: return std::make_unique<NakLayer>();
    case Type::kCrypt: return std::make_unique<CryptLayer>(crypt);
    case Type::kRelay: return std::make_unique<RelayLayer>(relay);
    case Type::kBottom: return std::make_unique<BottomLayer>(bottom);
  }
  throw std::invalid_argument("StackSpec: unknown layer type");
}

StackSpec StackSpec::paper() {
  return {{LayerSpec::frag_layer(FragConfig{/*threshold=*/8192}),
           LayerSpec::seq_layer(), LayerSpec::window_layer(WindowConfig{}),
           LayerSpec::bottom_layer(BottomConfig{})}};
}

void StackSpec::validate_built(
    const std::vector<std::unique_ptr<Layer>>& built) {
  if (built.empty()) {
    throw std::invalid_argument(
        "StackSpec: empty — a stack needs at least a bottom layer "
        "(add LayerSpec::bottom_layer())");
  }
  int prev_rank = 0;
  std::size_t prev_ranked = 0;
  std::string reliability_name;
  std::size_t reliability_at = 0;
  std::size_t bottoms = 0;

  for (std::size_t i = 0; i < built.size(); ++i) {
    const Layer& l = *built[i];
    const LayerTraits t = l.traits();

    if (t.bottom) {
      ++bottoms;
      if (i + 1 != built.size()) {
        throw std::invalid_argument(
            "StackSpec: bottom layer '" + std::string(l.name()) + "' at [" +
            std::to_string(i) + "] must terminate the stack — move it below " +
            "'" + std::string(built.back()->name()) + "'");
      }
    }

    if (t.rank != 0) {
      if (t.rank < prev_rank) {
        throw std::invalid_argument(
            "StackSpec: layer '" + std::string(l.name()) + "' at [" +
            std::to_string(i) + "] is misordered — its kind belongs above '" +
            std::string(built[prev_ranked]->name()) + "' at [" +
            std::to_string(prev_ranked) + "] (swap them)");
      }
      prev_rank = t.rank;
      prev_ranked = i;
    }

    if (t.reliability) {
      if (!reliability_name.empty() && reliability_name != l.name()) {
        throw std::invalid_argument(
            "StackSpec: layer '" + std::string(l.name()) + "' at [" +
            std::to_string(i) + "] adds a second reliability protocol ('" +
            reliability_name + "' already at [" +
            std::to_string(reliability_at) +
            "]) — a stack takes at most one (drop one of them)");
      }
      if (reliability_name.empty()) {
        reliability_name = std::string(l.name());
        reliability_at = i;
      }
    }
  }

  if (bottoms == 0) {
    throw std::invalid_argument(
        "StackSpec: no bottom layer — every stack must end in one "
        "(add LayerSpec::bottom_layer() last)");
  }
  // bottoms > 1 is unreachable here: a non-terminal bottom already threw.
}

LayerSpec* StackSpec::find(LayerSpec::Type type, std::size_t nth) {
  for (LayerSpec& l : layers) {
    if (l.type != type) continue;
    if (nth == 0) return &l;
    --nth;
  }
  return nullptr;
}

}  // namespace pa
