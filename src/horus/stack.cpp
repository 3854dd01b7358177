#include "horus/stack.h"

#include <stdexcept>
#include <string>

namespace pa {

Stack::Stack(const StackSpec& spec) {
  // Build first, validate the built layers: custom-layer factories may be
  // stateful (McastGroup's sender/member split), so each must run exactly
  // once per constructed stack.
  layers_.reserve(spec.layers.size());
  for (const LayerSpec& l : spec.layers) layers_.push_back(l.build());
  StackSpec::validate_built(layers_);
}

void Stack::init() {
  if (initialized_) throw std::logic_error("stack already initialized");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    registry_.set_current_layer(static_cast<LayerId>(i));
    LayerInit ctx{registry_, send_prog_, recv_prog_, i};
    layers_[i]->init(ctx);
  }
  registry_.set_current_layer(kEngineLayer);
  send_prog_.ret(1);
  recv_prog_.ret(1);
  send_prog_.validate(registry_.size());
  recv_prog_.validate(registry_.size());
  initialized_ = true;
}

std::uint64_t Stack::state_digest() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const auto& l : layers_) h = digest_mix(h, l->state_digest());
  return h;
}

std::uint64_t Stack::sync_digest() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const auto& l : layers_) h = digest_mix(h, l->sync_digest());
  return h;
}

std::string Stack::describe() const {
  // std::string formatting throughout: the old fixed snprintf line buffer
  // silently truncated long (custom) layer names.
  std::string out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    std::string name(layers_[i]->name());
    if (name.size() < 12) name.resize(12, ' ');
    out += "  [" + std::to_string(i) + "] " + name + " (" +
           layer_kind_name(layers_[i]->kind()) + ")\n";
  }
  out += "  " + std::to_string(registry_.size()) +
         " registered header fields\n";
  return out;
}

Layer* Stack::find(LayerKind kind, std::size_t which) {
  for (auto& l : layers_) {
    if (l->kind() == kind) {
      if (which == 0) return l.get();
      --which;
    }
  }
  return nullptr;
}

}  // namespace pa
