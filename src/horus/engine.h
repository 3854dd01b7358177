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
#include "horus/stack.h"
#include "pa/drop_reason.h"
#include "util/stat_counter.h"
#include "util/stat_fields.h"
#include "util/types.h"

namespace pa {

// EngineStats' counters, one row per field (util/stat_fields.h). All are
// StatCounters (relaxed atomics): the engine bumps them on its own thread
// while another thread may read them or render a report.
#define PA_ENGINE_STATS(X)                                                     \
  /* sending */                                                                \
  X(StatCounter, app_sends, "app_sends_total", "", "application send() calls") \
  X(StatCounter, fast_sends, "fast_sends_total", "",                           \
    "sends that bypassed the stack (predicted header)")                        \
  X(StatCounter, slow_sends, "slow_sends_total", "",                           \
    "sends through the stack pre-send")                                        \
  X(StatCounter, backlogged, "backlogged_total", "",                           \
    "sends parked behind pending post-processing")                             \
  X(StatCounter, packed_batches, "packed_batches_total", "",                   \
    "backlog flushes packed into one frame")                                   \
  X(StatCounter, packed_msgs, "packed_msgs_total", "",                         \
    "messages carried by packing")                                             \
  X(StatCounter, frames_out, "frames_out_total", "",                           \
    "wire frames transmitted")                                                 \
  X(StatCounter, conn_ident_sent, "conn_ident_sent_total", "",                 \
    "frames carrying the connection identification")                           \
  X(StatCounter, protocol_emits, "protocol_emits_total", "",                   \
    "layer-generated messages (acks, naks)")                                   \
  X(StatCounter, raw_resends, "raw_resends_total", "",                         \
    "verbatim retransmissions")                                                \
  /* delivering */                                                             \
  X(StatCounter, frames_in, "frames_in_total", "", "wire frames received")     \
  X(StatCounter, fast_delivers, "fast_delivers_total", "",                     \
    "deliveries on the predicted path (memcmp hit)")                           \
  X(StatCounter, slow_delivers, "slow_delivers_total", "",                     \
    "deliveries through the stack pre-deliver")                                \
  X(StatCounter, predict_misses, "predict_misses_total", "",                   \
    "received headers that missed the prediction")                             \
  X(StatCounter, delivered_to_app, "delivered_to_app_total", "",               \
    "application messages delivered (post-unpack)")                            \
  X(StatCounter, recv_queued, "recv_queued_total", "",                         \
    "frames parked behind post-processing")                                    \
  /* chaos / recovery */                                                       \
  X(StatCounter, restarts, "restarts_total", "", "simulated process restarts") \
  X(StatCounter, recovery_entries, "recovery_entries_total", "",               \
    "cookie-recovery episodes entered")

struct EngineStats {
  static constexpr const char* kMetricPrefix = "pa_engine";
  PA_STAT_FIELDS(PA_ENGINE_STATS)
  DropCounters drops;  // every dropped frame, by reason
};

class Engine {
 public:
  virtual ~Engine() = default;

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
};

}  // namespace pa
