// Engine execution environment.
//
// Engines (the PA and the classic baseline) are written against this
// interface so the same protocol code runs under the virtual-time
// simulation harness (horus/world.h), under unit tests with an immediate
// zero-cost environment, or under any future real transport.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "buf/wire_frame.h"
#include "util/types.h"

namespace pa {

class Env {
 public:
  virtual ~Env() = default;

  /// Current virtual instant.
  virtual Vt now() const = 0;

  /// True when now() is a modeled clock that costs nothing to read (the
  /// simulator). Engines then time every phase; on any other clock they
  /// time a sample, because each read is real work on the measured path.
  virtual bool clock_is_virtual() const { return false; }

  /// Consume CPU time (virtual cost model charge). Engines call it only
  /// when clock_is_virtual(): on any other clock the CPU charges itself,
  /// so they skip the call and the cost lookup.
  virtual void charge(VtDur d) = 0;

  /// Put a wire frame on the network toward the peer.
  virtual void send_frame(std::vector<std::uint8_t> frame) = 0;

  /// Scatter-gather variant: engines emit frames as chained slices that
  /// reference the message's storage directly. Environments that can carry
  /// a gather list (the simulator, the sendmsg-based UDP loop) override
  /// this; everything else falls back to one flatten at the boundary.
  virtual void send_frame(WireFrame frame) { send_frame(frame.flatten()); }

  /// Hand application data up (one call per application message).
  virtual void deliver(std::span<const std::uint8_t> payload) = 0;

  /// Run `fn` when the CPU next becomes idle — the PA schedules all
  /// post-processing this way (paper §3.1: "out of the critical path").
  virtual void defer(std::function<void()> fn) = 0;

  virtual void set_timer(VtDur delay, std::function<void()> fn) = 0;

  /// Unused (engines trace through obs::span); kept for the overrides in
  /// wallbench/env.h and tests/wire_golden_test.cpp (ROADMAP item 1).
  virtual void trace(std::string_view) {}

  /// GC accounting hooks: allocation of message storage, message reception,
  /// and a safe point where a collection pause may be charged.
  virtual void on_alloc(std::size_t bytes) = 0;
  virtual void on_reception() = 0;
  virtual void gc_point() = 0;
};

}  // namespace pa
