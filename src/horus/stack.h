// Protocol stack assembly.
//
// A Stack is an ordered list of canonical layers (index 0 = closest to the
// application) plus the shared layout registry and packet-filter programs
// they initialize into. The standard stack is the paper's evaluation stack:
// four layers implementing a basic sliding-window protocol —
// frag / seq / window / bottom.
#pragma once

#include <memory>
#include <vector>

#include "horus/stack_spec.h"
#include "layers/layer.h"

namespace pa {

/// The stack slot of an engine's config. Its one field is the composition;
/// everything else about a stack (layout, filters, predictions) derives
/// from that list.
struct StackParams {
  StackSpec spec = StackSpec::paper();
};

class Stack {
 public:
  /// Build the composition's layers and validate them (throws
  /// std::invalid_argument on constraint violations).
  explicit Stack(const StackSpec& spec);

  Stack(Stack&&) noexcept = default;
  Stack& operator=(Stack&&) noexcept = default;

  /// Run every layer's init (field registration + filter construction),
  /// then seal and validate the filter programs. The engine may register
  /// its own fields (packing info) on registry() before calling this.
  void init();
  bool initialized() const { return initialized_; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  LayoutRegistry& registry() { return registry_; }
  const LayoutRegistry& registry() const { return registry_; }
  FilterProgram& send_prog() { return send_prog_; }
  FilterProgram& recv_prog() { return recv_prog_; }

  /// Combined state digest across layers (canonical-form tests).
  std::uint64_t state_digest() const;

  /// Combined *convergent*-state digest: only state both endpoints agree on
  /// once traffic drains (sequence cursors, stash/buffer occupancy). Unlike
  /// state_digest it excludes timers, stats and RTT estimates, so the two
  /// ends of a healed connection can be compared for equality.
  std::uint64_t sync_digest() const;

  /// One line per layer: index, name, kind — plus the field count.
  std::string describe() const;

  /// Find the first layer of a kind (nullptr if absent). `which` selects
  /// among multiple instances.
  Layer* find(LayerKind kind, std::size_t which = 0);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  LayoutRegistry registry_;
  FilterProgram send_prog_;
  FilterProgram recv_prog_;
  bool initialized_ = false;
};

}  // namespace pa
