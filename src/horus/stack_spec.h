// Runtime-composable stack specifications (ISSUE 10's tentpole).
//
// A StackSpec is a *value* describing a connection's layer pipeline: an
// ordered list of LayerSpec descriptors (top = closest to the application
// first), each naming a layer type and carrying its config. The spec is
// validated against the composition constraints every layer declares about
// itself (Layer::traits(), src/layers/layer.h):
//
//   - the stack is non-empty and terminated by exactly one bottom layer;
//   - non-zero traits().rank values must be non-decreasing walking from the
//     application toward the wire (rank-0 layers — gossip carriers,
//     arbitrary customs — compose anywhere);
//   - at most one *named* reliability protocol (repeated instances of the
//     same one are allowed: the paper's doubled-window study runs
//     window/window; window above nak is rejected).
//
// Stack's constructor runs validate_built(), which throws
// std::invalid_argument with an actionable message (which layer, which rule,
// what to change). From a valid spec, Stack::init() derives everything
// downstream — the layout registry, both packet-filter programs, the
// prediction templates and the conn-ident set are all computed from the
// composed layer list, never hand-assembled per stack (the P4 argument:
// artifacts follow the composition).
//
// A spec is the only way to state a stack. Start from StackSpec::paper()
// and edit a layer's config through find(), or compose a different list
// with add() / push_top().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "layers/bottom_layer.h"
#include "layers/comp_layer.h"
#include "layers/crypt_layer.h"
#include "layers/frag_layer.h"
#include "layers/layer.h"
#include "layers/nak_layer.h"
#include "layers/relay_layer.h"
#include "layers/seq_layer.h"
#include "layers/window_layer.h"

namespace pa {

/// One layer in a composed stack: a type tag plus the matching config.
/// Build with the factory helpers; kCustom wraps any user Layer factory.
struct LayerSpec {
  enum class Type : std::uint8_t {
    kCustom,
    kComp,
    kFrag,
    kSeq,
    kWindow,
    kNak,
    kCrypt,
    kRelay,
    kBottom,
  };

  Type type = Type::kCustom;

  // Per-type configs (only the one matching `type` is read).
  FragConfig frag{/*threshold=*/8192};
  std::uint32_t initial_seq = 0;
  WindowConfig window{};
  CryptConfig crypt{};
  RelayConfig relay{};
  BottomConfig bottom{};
  // `{}` lets the factories' designated initializers leave it out.
  std::function<std::unique_ptr<Layer>()> make_custom{};

  static LayerSpec custom(std::function<std::unique_ptr<Layer>()> make);
  static LayerSpec comp_layer();
  static LayerSpec frag_layer(FragConfig cfg);
  static LayerSpec seq_layer(std::uint32_t initial_seq = 0);
  static LayerSpec window_layer(WindowConfig cfg);
  static LayerSpec nak_layer();
  static LayerSpec crypt_layer(CryptConfig cfg = {});
  static LayerSpec relay_layer(RelayConfig cfg = {});
  static LayerSpec bottom_layer(BottomConfig cfg);

  /// Instantiate this spec's layer.
  std::unique_ptr<Layer> build() const;
};

struct StackSpec {
  std::vector<LayerSpec> layers;  // top (application side) first

  /// The paper's evaluation stack: frag(8192) / seq / window / bottom.
  static StackSpec paper();

  StackSpec& add(LayerSpec l) {
    layers.push_back(std::move(l));
    return *this;
  }

  /// Insert above every layer already in the spec.
  StackSpec& push_top(LayerSpec l) {
    layers.insert(layers.begin(), std::move(l));
    return *this;
  }

  /// The nth layer of a type (top first), or nullptr if there are fewer.
  LayerSpec* find(LayerSpec::Type type, std::size_t nth = 0);

  /// Check the composition constraints (see file comment) over built
  /// layers; throws std::invalid_argument naming the offending layer and
  /// the fix.
  static void validate_built(
      const std::vector<std::unique_ptr<Layer>>& built);
};

}  // namespace pa
