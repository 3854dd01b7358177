// The canonical protocol layer interface (paper §3.1).
//
// Every layer's send and delivery processing is split into two phases:
//
//   pre-processing  — build (send) or check (delivery) the header, WITHOUT
//                     touching protocol state. Enforced by const-ness here
//                     and by state-digest property tests.
//   post-processing — update protocol state (increment sequence numbers,
//                     save retransmission copies, process acks, drain
//                     stashes). May generate protocol messages (acks,
//                     retransmits) and release stashed messages upward.
//
// Because pre phases never mutate state, an engine may run every layer's
// pre phase, put the message on the wire (or deliver it), and defer all
// post phases out of the critical path — which is precisely how the PA
// masks layering overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "buf/message.h"
#include "layout/layout.h"
#include "layout/view.h"
#include "filter/program.h"
#include "sim/cost_model.h"
#include "util/types.h"

namespace pa {

namespace obs {
class MetricsRegistry;
}

enum class SendVerdict : std::uint8_t {
  kOk,      // header written; pass downward
  kRefuse,  // cannot send now (engines treat as backlog)
};

enum class DeliverVerdict : std::uint8_t {
  kDeliver,  // acceptable; pass upward
  kConsume,  // this layer owns the message (stash / protocol message)
  kDrop,     // duplicate or damaged; discard (post still runs for acking)
};

/// Handed to each layer's init(): where to register header fields and which
/// packet-filter programs to extend with message-specific instructions.
struct LayerInit {
  LayoutRegistry& layout;
  FilterProgram& send_filter;
  FilterProgram& recv_filter;
  std::size_t layer_index;  // 0 = closest to the application
};

/// Engine services available to post phases and timer callbacks.
class LayerOps {
 public:
  virtual ~LayerOps() = default;

  /// The current instant. On a virtual clock it is exact. On a wall clock
  /// the PA gives each step (one deferred post batch, or one timer fire)
  /// one instant, so a value may be stale by up to the step's length: a
  /// timer armed late in a long batch (a full window's post phases) fires
  /// at most that much late, against an RTO floor of WindowLayer::kMinRto.
  /// A batch scheduled while the engine handles a frame takes that frame's
  /// arrival instant (the `at` of Engine::on_frame), so its value may also
  /// trail by the time from arrival to the batch; any other step reads the
  /// clock once, at its first call. It never goes backwards within an
  /// engine.
  virtual Vt now() const = 0;

  /// Send a freshly generated protocol message (e.g. an ack) downward: the
  /// engine allocates headers, calls `fill` so the emitting layer can write
  /// its own fields, then runs the layers *below* the emitter. `unusual`
  /// messages carry the connection identification (paper §2.2) — use it for
  /// messages that must get through even if the peer never learned our
  /// cookie (repair requests, first-contact control traffic).
  virtual void emit_down(Message msg, std::function<void(HeaderView&)> fill,
                         bool unusual = false) = 0;

  /// Retransmit a previously sent message verbatim: its headers are already
  /// complete, no layer reprocessing happens; `patch` may flip fields (the
  /// retransmit bit). Sent as an "unusual" message carrying the connection
  /// identification (paper §2.2).
  virtual void resend_raw(const Message& msg,
                          std::function<void(HeaderView&)> patch) = 0;

  /// Hand a stashed message upward from this layer toward the application;
  /// layers above run their pre+post delivery phases on it.
  virtual void release_up(Message msg) = 0;

  virtual void set_timer(VtDur delay,
                         std::function<void(LayerOps&)> cb) = 0;

  /// Header prediction disable counters (paper §3.2): raising blocks the
  /// fast path (and sending entirely, for the send side — the PA backlogs).
  virtual void disable_send() = 0;
  virtual void enable_send() = 0;
  virtual void disable_deliver() = 0;
  virtual void enable_deliver() = 0;

  /// A layer's reliability machinery believes the peer is not hearing us
  /// (e.g. the window layer sees a streak of duplicate data: our acks keep
  /// dying, or the peer forgot who we are). The PA reacts by re-shipping
  /// the full connection identification for a while (cookie-epoch
  /// recovery); other engines ignore it. Default no-op so custom LayerOps
  /// implementations (tests, harnesses) need not care.
  virtual void notify_unreachable_peer() {}
};

/// How the overload governor may treat a layer's *protocol emissions*
/// (emit_down messages — never application data) under pressure:
///   - kNever     : repairs and irreplaceable control (NAKs). Never shed.
///   - kLiveness  : pure liveness gossip (membership beacons).
///     The peer's failure detector tolerates misses up to its timeout, so
///     these go first (Saturated and above).
///   - kGossipAck : standalone acknowledgement/gossip carriers that are
///     re-emitted by their own machinery (ack-every counters, delayed-ack
///     timers) and whose payload also piggybacks on data. Shed only at
///     Critical.
enum class ShedClass : std::uint8_t { kNever, kLiveness, kGossipAck };

/// Composition constraints a layer declares about itself (consumed by
/// StackSpec::validate_built(), src/horus/stack_spec.h). `rank` orders
/// layers top (application) to bottom (wire): within a stack, non-zero
/// ranks must be non-decreasing walking downward. Rank-0 layers (gossip
/// carriers, arbitrary custom layers) compose anywhere. At most one
/// *named* reliability protocol may appear (repeated instances of the same
/// one are allowed — the paper's doubled-window study), and exactly one
/// bottom layer, which must terminate the stack.
///
/// `fixed_prediction` is a promise to the PA: predict_send() and
/// predict_deliver() write values that depend only on the layer's config
/// (and the view's byte order), never on protocol state. The PA then calls
/// them once, at construction, and copies their output into every later
/// prediction; predictions_fresh() still rebuilds from every layer, so a
/// false promise shows there.
struct LayerTraits {
  int rank = 0;
  bool reliability = false;
  bool bottom = false;
  bool fixed_prediction = false;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;
  virtual std::string_view name() const = 0;

  /// Shed priority of this layer's protocol emissions under overload (see
  /// ShedClass). Data and anything not explicitly classified is kNever.
  virtual ShedClass shed_class() const { return ShedClass::kNever; }

  /// Composition constraints (see LayerTraits). The default derives a
  /// canonical rank from kind(); layers whose kind is ambiguous (kCustom
  /// reliability protocols like NAK) override this.
  virtual LayerTraits traits() const;

  // --- frame codecs (whole-frame payload transforms) ---------------------
  //
  // A codec layer (AEAD encryption) rewrites the frame payload between the
  // layers above it and the wire. Engines run encode_frame() at send
  // initiation — after every layer's header is written but before the
  // bottom's length/checksum filter fields are computed, so the filter
  // covers the ciphertext — and decode_frame() on delivery right after this
  // layer's pre_deliver accepts (predicted path: after the prediction
  // check, before the app sees the payload). Both are const: any varying
  // input (the nonce) must live in header fields written by pre_send /
  // advanced by post_send, which is exactly what keeps the fast path's
  // prediction valid. Return false to reject the frame (auth failure).
  virtual bool has_frame_codec() const { return false; }
  virtual bool encode_frame(Message& msg, const HeaderView& hdr) const;
  virtual bool decode_frame(Message& msg, const HeaderView& hdr) const;

  // --- deliver transforms (per-app-message payload inverses) -------------
  //
  // The inverse of transform_send() for layers that rewrite payload bytes
  // per application message (compression). Engines call decode_part() at
  // the app-delivery boundary, once per unpacked sub-message, with the
  // message packing already undone. On success `res` points either into
  // `in` (pass-through payload: zero-copy) or into `scratch` (inflated
  // bytes). Return false if the framing is undecodable (engine drops with
  // DropReason::kCompCodec).
  virtual bool has_deliver_transform() const { return false; }
  virtual bool decode_part(std::span<const std::uint8_t> in,
                           std::span<const std::uint8_t>& res,
                           std::vector<std::uint8_t>& scratch) const;

  /// Register header fields and extend the packet filters. Called once per
  /// connection, top layer first; the registry's current layer id is set by
  /// the engine before each call.
  virtual void init(LayerInit& ctx) = 0;

  /// Write connection-identification fields: outgoing values
  /// (incoming=false) or the values this side expects from its peer
  /// (incoming=true).
  virtual void write_conn_ident(HeaderView& hdr, bool incoming) const;

  /// Check an incoming message's connection-identification fields against
  /// what this side expects from its peer (used by the router to locate the
  /// connection when the cookie is unknown, paper §2.2).
  virtual bool match_conn_ident(const HeaderView& hdr) const;

  // --- canonical pre phases (const: no state mutation) -------------------
  virtual SendVerdict pre_send(Message& msg, HeaderView& hdr) const = 0;
  virtual DeliverVerdict pre_deliver(const Message& msg,
                                     const HeaderView& hdr) const = 0;

  // --- canonical post phases ---------------------------------------------
  //
  // Post phases run DEFERRED — through Env::defer, after send()/on_frame()
  // has returned and the caller's stack frame is gone. Anything a post
  // phase (or a timer callback it arms) will need later must therefore be
  // OWNED by the layer or the deferred record: copy bytes into a Message /
  // std::vector, capture by value, never keep a span, pointer or reference
  // into caller state. The `msg`/`hdr` arguments themselves are
  // engine-owned copies and safe for the duration of the call only.
  // tests/accelerator_test.cpp (DeferredRecords.*) clobbers the caller's
  // buffer before releasing the deferred work and fails on any violation.
  virtual void post_send(const Message& msg, const HeaderView& hdr,
                         LayerOps& ops) = 0;
  /// For kConsume the layer takes the message (moves from `msg`).
  virtual void post_deliver(Message& msg, const HeaderView& hdr,
                            DeliverVerdict verdict, LayerOps& ops) = 0;

  // --- header prediction (paper §3.2) -------------------------------------
  /// Write this layer's protocol-specific (and, for sending, gossip) fields
  /// for the NEXT expected message into the predicted header.
  virtual void predict_send(HeaderView& hdr) const = 0;
  virtual void predict_deliver(HeaderView& hdr) const = 0;

  /// Message transformation above the canonical phases (fragmentation,
  /// paper §6). Runs at send initiation; MAY mutate state. Non-empty result
  /// replaces the message.
  virtual std::vector<Message> transform_send(Message& msg);

  /// Stable digest of all protocol state (canonical-form property tests
  /// hash this around pre phases).
  virtual std::uint64_t state_digest() const = 0;

  /// Digest of *convergent* state only: the subset of protocol state that
  /// must agree across the two endpoints of a quiescent connection. Unlike
  /// state_digest() it excludes timers, RTT estimates and stats, so the
  /// soak harness can assert cross-endpoint equality after faults heal.
  ///
  /// Implementations sum a send half and a receive half built with
  /// sync_half(): on a drained connection this end's send cursor equals the
  /// *peer's* receive cursor (not its own — frame counts differ per
  /// direction once packing or protocol emissions enter), and the
  /// commutative sum makes A.send+A.recv == B.send+B.recv exactly when the
  /// halves pair up crosswise. Layers with no such state return 0.
  virtual std::uint64_t sync_digest() const { return 0; }

  /// Register this layer's counters as read-through metrics named
  /// `<prefix>_<metric>` (obs/bridge.h). The stack walker picks the prefix
  /// (pa_stack_window, pa_stack_window2, …). Layers without exported stats
  /// keep this no-op, and so does a wrapper that does not forward it.
  virtual void bind_stats(obs::MetricsRegistry& reg,
                          const std::string& prefix) const;

 protected:
  /// One half of a sync_digest: a cursor plus unconverged-buffer occupancy
  /// (send: in-flight/unacked, recv: stashed out-of-order).
  static std::uint64_t sync_half(std::uint64_t cursor, std::uint64_t pending);
};

/// Serial-number ordering (RFC 1982-style) for sequence-keyed containers.
/// A strict weak order as long as live keys span less than 2^31 — true for
/// any windowed protocol. Required for correct head-of-window selection
/// across 32-bit wraparound.
struct SerialLess {
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::int32_t>(a - b) < 0;
  }
};

/// FNV-1a helper for state_digest implementations.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ull;
}

inline std::uint64_t Layer::sync_half(std::uint64_t cursor,
                                      std::uint64_t pending) {
  return digest_mix(digest_mix(0xcbf29ce484222325ull, cursor), pending);
}

}  // namespace pa
