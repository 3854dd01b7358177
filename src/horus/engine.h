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
#include "util/types.h"

namespace pa {

// All counters are StatCounters (relaxed atomics): the engine bumps them on
// its own thread while another thread may read them or render a report.
struct EngineStats {
  // sending
  StatCounter app_sends;
  StatCounter fast_sends;        // bypassed the stack entirely
  StatCounter slow_sends;        // stack pre-send path
  StatCounter backlogged;
  StatCounter packed_batches;
  StatCounter packed_msgs;
  StatCounter frames_out;
  StatCounter conn_ident_sent;   // frames carrying the conn-ident
  StatCounter protocol_emits;    // layer-generated messages (acks)
  StatCounter raw_resends;       // verbatim retransmissions
  // delivering
  StatCounter frames_in;
  StatCounter fast_delivers;     // predicted header matched
  StatCounter slow_delivers;     // stack pre-deliver path
  StatCounter filter_drops;      // receive packet filter said drop
  StatCounter predict_misses;
  StatCounter delivered_to_app;  // application messages (post-unpack)
  StatCounter recv_queued;       // frames parked behind post-processing
  StatCounter recv_overflow_drops;
  StatCounter malformed_drops;
  // chaos / recovery
  DropCounters drops;                  // per-reason breakdown (additive to
                                       // the legacy counters above)
  StatCounter restarts;          // on_restart() invocations
  StatCounter recovery_entries;  // cookie-recovery episodes entered
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
