// Common engine interface.
//
// Both execution engines — the Protocol Accelerator (pa/accelerator.h) and
// the classic layered baseline (classic/engine.h) — run the same canonical
// layer stacks behind this interface, so the router, endpoints and the
// equivalence property tests treat them uniformly.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "buf/message.h"
#include "buf/wire_frame.h"
#include "horus/env.h"
#include "horus/stack.h"
#include "obs/trace_ring.h"
#include "pa/drop_reason.h"
#include "util/stat_fields.h"
#include "util/types.h"

namespace pa {

// EngineStats' counters, one row per field (util/stat_fields.h). Plain
// integers: the engine's thread bumps them and the same thread reads them
// (docs/INTERNALS.md, "Threading contract").
#define PA_ENGINE_STATS(X)                                                     \
  /* sending */                                                                \
  X(std::uint64_t, app_sends, "app_sends_total", "",                           \
    "application send() calls")                                                \
  X(std::uint64_t, fast_sends, "fast_sends_total", "",                         \
    "sends that bypassed the stack (predicted header)")                        \
  X(std::uint64_t, slow_sends, "slow_sends_total", "",                         \
    "sends through the stack pre-send")                                        \
  X(std::uint64_t, backlogged, "backlogged_total", "",                         \
    "sends parked behind pending post-processing")                             \
  X(std::uint64_t, packed_batches, "packed_batches_total", "",                 \
    "backlog flushes packed into one frame")                                   \
  X(std::uint64_t, packed_msgs, "packed_msgs_total", "",                       \
    "messages carried by packing")                                             \
  X(std::uint64_t, frames_out, "frames_out_total", "",                         \
    "wire frames transmitted")                                                 \
  X(std::uint64_t, conn_ident_sent, "conn_ident_sent_total", "",               \
    "frames carrying the connection identification")                           \
  X(std::uint64_t, protocol_emits, "protocol_emits_total", "",                 \
    "layer-generated messages (acks, naks)")                                   \
  X(std::uint64_t, raw_resends, "raw_resends_total", "",                       \
    "verbatim retransmissions")                                                \
  /* delivering */                                                             \
  X(std::uint64_t, frames_in, "frames_in_total", "", "wire frames received")   \
  X(std::uint64_t, fast_delivers, "fast_delivers_total", "",                   \
    "deliveries on the predicted path (memcmp hit)")                           \
  X(std::uint64_t, slow_delivers, "slow_delivers_total", "",                   \
    "deliveries through the stack pre-deliver")                                \
  X(std::uint64_t, predict_misses, "predict_misses_total", "",                 \
    "received headers that missed the prediction")                             \
  X(std::uint64_t, delivered_to_app, "delivered_to_app_total", "",             \
    "application messages delivered (post-unpack)")                            \
  X(std::uint64_t, recv_queued, "recv_queued_total", "",                       \
    "frames parked behind post-processing")                                    \
  /* chaos / recovery */                                                       \
  X(std::uint64_t, restarts, "restarts_total", "",                             \
    "simulated process restarts")                                              \
  X(std::uint64_t, recovery_entries, "recovery_entries_total", "",             \
    "cookie-recovery episodes entered")

struct EngineStats {
  static constexpr const char* kMetricPrefix = "pa_engine";
  PA_STAT_FIELDS(PA_ENGINE_STATS)
  DropCounters drops;  // every dropped frame, by reason
};

inline constexpr std::uint32_t kPhaseSampleEvery = 16;

/// Which calls of an engine's timed phases read the clock and record spans
/// (and PA histogram samples): all under a virtual clock, where reading is
/// free; else the first and then one in kPhaseSampleEvery per phase, since
/// each read is real work on the measured path. Counters stay exact.
template <std::size_t kPhases>
class PhaseSampler {
 public:
  explicit PhaseSampler(bool virtual_clock) : every_call_(virtual_clock) {}
  bool timed(std::size_t phase) {
    return every_call_ || calls_[phase]++ % kPhaseSampleEvery == 0;
  }

 private:
  bool every_call_;
  std::uint32_t calls_[kPhases] = {};
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Owner tag on this engine's trace spans (SpanEvent::owner).
  std::uint16_t obs_id() const { return obs_id_; }

  /// Application send (one application message).
  virtual void send(std::span<const std::uint8_t> payload) = 0;

  /// Zero-copy application send: the caller transfers ownership of an
  /// already-built message whose payload chain is shared by reference (a
  /// group sender clones one chain to N connections this way). The default
  /// flattens through the span path; engines with a chain-preserving send
  /// pipeline override it.
  virtual void send(Message m) { send(m.payload()); }

  /// A wire frame addressed to this connection (router-dispatched). The
  /// frame arrives as a gather list; the receive path adopts its chunks
  /// without copying. The vector convenience wraps flat bytes zero-copy.
  virtual void on_frame(WireFrame frame, Vt at) = 0;
  void on_frame(std::vector<std::uint8_t> frame, Vt at) {
    on_frame(WireFrame::adopt(std::move(frame)), at);
  }

  /// Does this frame's connection identification match this connection?
  /// Engines only examine the leading header bytes, which every emitted
  /// frame keeps in its first slice.
  virtual bool match_ident(std::span<const std::uint8_t> frame) const = 0;
  bool match_ident(const WireFrame& frame) const {
    return match_ident(frame.first());
  }

  /// Simulate a crash+restart of this endpoint's process: volatile protocol
  /// identity (the PA cookie) is redrawn, learned peer state is discarded.
  /// Durable layer state is untouched — recovery is the engine's job.
  virtual void on_restart() {}

  virtual Stack& stack() = 0;
  virtual const EngineStats& stats() const = 0;

 protected:
  /// An instant span at env.now() under this engine's owner, if `timed`.
  void mark(bool timed, obs::SpanKind kind, const Env& env,
            std::uint32_t arg = 0) const {
    if (timed) obs::span(kind, env.now(), 0, arg, obs_id_);
  }

  const std::uint16_t obs_id_ = obs::next_owner_id();
};

}  // namespace pa
