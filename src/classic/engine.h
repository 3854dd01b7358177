// The classic layered engine — the baseline the paper improves on.
//
// Runs the *same* canonical layers as the PA, but the way the original C
// Horus (and conventional layered systems generally) did:
//   - each layer has its own 4-byte-aligned header carrying all of its
//     fields, connection identification included, on *every* message
//     (no cookies, no compact per-class packing);
//   - pre- and post-processing both execute synchronously on the critical
//     path, layer by layer;
//   - no header prediction, no packet filters, no message packing;
//   - the receiver locates the connection by matching the full addresses.
//
// bench_headline runs the same stack under both engines; the PA's ~170 µs
// round trip vs this engine's ~1.5 ms is the paper's headline result.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "horus/engine.h"
#include "horus/env.h"
#include "layout/view.h"
#include "sim/cost_model.h"

namespace pa {

struct ClassicConfig {
  StackParams stack;
  CostModel costs = CostModel::paper();
  Endian self_endian = host_endian();
  Endian peer_endian = host_endian();
};

class ClassicEngine final : public Engine {
 public:
  ClassicEngine(ClassicConfig cfg, Env& env);

  void send(std::span<const std::uint8_t> payload) override;
  using Engine::send;  // keep the zero-copy Message overload visible
  void on_frame(WireFrame frame, Vt at) override;
  using Engine::on_frame;
  bool match_ident(std::span<const std::uint8_t> frame) const override;
  using Engine::match_ident;
  Stack& stack() override { return stack_; }
  const EngineStats& stats() const override { return stats_; }

  const CompiledLayout& layout() const { return layout_; }
  std::size_t header_bytes() const { return total_hdr_; }
  std::size_t queue_len() const { return queue_.size(); }
  int disable_send_count() const { return disable_send_; }

 private:
  class Ops;
  friend class Ops;

  HeaderView bind(const std::uint8_t* base, Endian wire) const;
  void submit(Message m);
  void process_send(Message m);
  void flush_queue();
  bool deliver_msg(Message m, std::size_t entered_below, bool timed);
  void deliver_part(std::span<const std::uint8_t> part);
  void emit_down(std::size_t from_layer, Message m,
                 const std::function<void(HeaderView&)>& fill);
  void resend_raw(const Message& stored,
                  const std::function<void(HeaderView&)>& patch);
  void set_layer_timer(std::size_t layer, VtDur delay,
                       std::function<void(LayerOps&)> cb);
  void drain_releases();

  ClassicConfig cfg_;
  Env& env_;
  // Cost-model charges move only a virtual clock; on any other clock the
  // engine skips both the charge and the cost lookup.
  const bool virtual_clock_;
  Stack stack_;
  CompiledLayout layout_;
  std::vector<std::size_t> region_off_;  // byte offset of each layer header
  std::size_t total_hdr_ = 0;
  // Composable-stack seams, derived in the ctor (same as PaEngine): layers
  // that rewrite whole frame payloads and the per-part deliver transform.
  std::vector<std::size_t> codec_layers_;
  std::size_t deliver_transform_ = SIZE_MAX;
  std::vector<std::uint8_t> part_scratch_;

  int disable_send_ = 0;
  std::deque<Message> queue_;  // messages blocked by a full window
  // Released messages, bucketed by releasing layer and drained top-first
  // (see the identical structure in PaEngine for the FIFO rationale).
  std::map<std::size_t, std::deque<Message>> release_buckets_;
  bool in_send_ = false;  // reentrancy guard for flush_queue

  EngineStats stats_;
  // Timed phases (PhaseSampler, the PA's sampling rule).
  enum TimedPhase {
    kTimeSend, kTimeFrame, kTimeRelease, kTimeProto, kTimeRexmit,
    kNumTimedPhases
  };
  PhaseSampler<kNumTimedPhases> sampler_;
};

}  // namespace pa
