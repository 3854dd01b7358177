// The Protocol Accelerator (paper §3-4, Figure 3).
//
// One PaEngine per connection (the paper employs "a PA per connection").
// It owns:
//   - the compact compiled header layout (one header per information class),
//   - the send/receive packet filters (interpreted or compiled),
//   - the predicted protocol-specific + gossip headers for the next send
//     and the predicted protocol-specific header for the next delivery,
//   - the prediction disable counters,
//   - the backlog and the message packer,
//   - the connection cookie machinery.
//
// Fast paths (the point of the whole paper):
//   send:    predicted header memcpy + send filter + preamble → wire;
//            the layered stack is not invoked until post-processing, which
//            runs deferred, when the node is idle.
//   deliver: cookie lookup (router) + receive filter + memcmp of the
//            protocol-specific header against the prediction → application.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "buf/pool.h"
#include "filter/compiled.h"
#include "filter/interp.h"
#include "horus/engine.h"
#include "horus/env.h"
#include "pa/packing.h"
#include "pa/preamble.h"
#include "resil/governor.h"
#include "sim/cost_model.h"

namespace pa {

class WindowLayer;

/// Packing train limits (§3.4): one packed frame carries at most this many
/// messages and this many payload bytes.
inline constexpr std::size_t kMaxPackBatch = 128;
inline constexpr std::size_t kMaxPackBytes = 8192;

struct PaConfig {
  StackParams stack;
  CostModel costs = CostModel::paper();
  bool use_compiled_filters = true;
  bool enable_packing = true;
  bool variable_packing = false;   // extension: pack unequal sizes
  bool use_message_pool = true;    // §6: explicit alloc/dealloc of messages
  Endian self_endian = host_endian();
  std::uint64_t cookie_seed = 1;   // deterministic cookie source
  /// Extension (paper §2.2 "agree on a cookie before starting to use it"):
  /// when set, the peer's cookie is pre-agreed out of band and the first
  /// message does not need to carry the connection identification.
  bool cookie_preagreed = false;
  /// Ablation: ship the full connection identification on *every* message
  /// (what conventional stacks do; cookie compression off).
  bool always_send_conn_ident = false;
  /// Ablation: never use the predicted-header fast paths (every message
  /// takes the stack's pre phases on the critical path).
  bool disable_prediction = false;
  // --- overload governor (src/resil/) -------------------------------------
  /// When set, the engine feeds the governor its pressure signals (backlog
  /// depth, recv-queue depth, pool occupancy) and obeys its degradation
  /// policies: ingest admission control, beacon/gossip shedding,
  /// packing-train shrink and window clamp. Every refusal lands in
  /// stats().drops under a shed_* reason. Non-owning; shared across the
  /// engines and router of one node.
  resil::OverloadGovernor* governor = nullptr;
};

// Concurrency model: one thread. Every entry point (send, on_frame, timer
// callbacks, deferred post batches) runs on the thread that drives the
// engine's Env; post-processing is handed to Env::defer and runs when that
// thread is next idle (paper §3.1).
class PaEngine final : public Engine {
 public:
  /// Frames parked behind a pending post-deliver batch. A bounded buffer: a
  /// real NIC receive ring overflows too, and retransmission recovers the
  /// loss (DropReason::kRecvQueueFull).
  static constexpr std::size_t kMaxRecvQueue = 1024;

  PaEngine(PaConfig cfg, Env& env);

  // --- Engine interface ---------------------------------------------------
  void send(std::span<const std::uint8_t> payload) override;
  void send(Message m) override;
  void on_frame(WireFrame frame, Vt at) override;
  using Engine::on_frame;
  bool match_ident(std::span<const std::uint8_t> frame) const override;
  using Engine::match_ident;
  Stack& stack() override { return stack_; }
  const EngineStats& stats() const override { return stats_; }
  void on_restart() override;

  // --- introspection ------------------------------------------------------
  const CompiledLayout& layout() const { return layout_; }
  std::uint64_t out_cookie() const { return out_cookie_; }
  std::size_t conn_ident_bytes() const { return ci_; }
  std::size_t fixed_header_bytes() const { return fixed_hdr_; }
  std::size_t backlog_len() const { return backlog_.size(); }
  bool send_idle() const { return !send_busy_; }
  int disable_send_count() const { return disable_send_; }
  std::uint64_t cookie_epoch() const { return cookie_epoch_; }
  bool in_recovery() const { return recovery_quota_ > 0; }
  const PaConfig& config() const { return cfg_; }
  const MessagePool& pool() const { return pool_; }
  /// True when the stored send and deliver predictions equal a rebuild from
  /// the layers' current state. Holds after every post batch and timer fire.
  bool predictions_fresh() const;

  /// For the pre-agreed-cookie extension: both sides call this with the
  /// peer's cookie before traffic starts.
  void preagree_peer_cookie(std::uint64_t cookie);

  /// Raw disable-counter access (paper §3.2) for tests and custom layers.
  void disable_send_prediction() { ++disable_send_; }
  void enable_send_prediction();
  void disable_deliver_prediction() { ++disable_deliver_; }
  void enable_deliver_prediction() { --disable_deliver_; }

 private:
  class Ops;
  friend class Ops;

  struct PendingDeliver {
    Message msg;
    std::size_t stop;  // lowest layer index reached by pre-deliver
    DeliverVerdict verdict;
  };

  // region indices in the compact layout
  static constexpr std::size_t kRegConnId = 0;
  static constexpr std::size_t kRegProto = 1;
  static constexpr std::size_t kRegMsgSpec = 2;
  static constexpr std::size_t kRegGossip = 3;
  static constexpr std::size_t kRegPacking = 4;

  HeaderView bind(Message& m, Endian wire) const;
  HeaderView bind_prediction(std::uint8_t* proto, std::uint8_t* gossip,
                             Endian wire) const;
  HeaderView bind_zero_header();

  void submit(Message m);
  void enqueue_or_send(Message m);
  void start_send(Message m, std::uint64_t pk_count, std::uint64_t pk_each,
                  bool pk_var);
  void transmit(Message& m, bool unusual);
  void queue_post_send(Message m);
  void schedule_post();
  void run_posts();
  void flush_backlog();
  void process_recv_queue();
  void process_frame(WireFrame frame);
  void deliver_to_app(Message& m, bool charge_unpack);
  /// Hand one unpacked app message up, running the deliver transform
  /// (compression inverse) when the stack composes one.
  void deliver_part(std::span<const std::uint8_t> part);
  /// Run every codec layer's encode over the outgoing frame (top-down).
  /// `charge` adds the codec layers' pre-send cost (fast path: their
  /// pre_send never ran, so the codec work is charged here).
  bool encode_codecs(Message& m, const HeaderView& v, bool charge);
  /// Inverse, bottom-up, for the predicted deliver path. False => the
  /// frame failed authentication and was counted as kAeadAuth.
  bool decode_codecs(Message& m, const HeaderView& v);
  void drain_releases();
  // Timed phases (PhaseSampler): kTimeProto and kTimeRexmit mark frames
  // the stack emits, kTimeFlush each packed backlog batch.
  enum TimedPhase {
    kTimeSend, kTimeFrame, kTimePosts, kTimeProto, kTimeRexmit, kTimeFlush,
    kNumTimedPhases
  };
  void rebuild_send_prediction();
  void rebuild_deliver_prediction();
  /// Build the predictions from the layers' current state into the given
  /// buffers (pr_ proto bytes, go_ gossip bytes): from zeroed buffers
  /// through every layer when `from_scratch`, else from the fixed layers'
  /// images through the varying layers only. Both give the same bytes.
  void predict_send_into(std::uint8_t* proto, std::uint8_t* gossip,
                         bool from_scratch) const;
  void predict_deliver_into(std::uint8_t* proto, bool from_scratch) const;
  /// Build the fixed layers' images (LayerTraits::fixed_prediction).
  void predict_fixed_layers();
  void emit_down(std::size_t from_layer, Message m,
                 const std::function<void(HeaderView&)>& fill, bool unusual);
  void resend_raw(const Message& stored,
                  const std::function<void(HeaderView&)>& patch);
  void enter_recovery();
  void set_layer_timer(std::size_t layer, VtDur delay,
                       std::function<void(LayerOps&)> cb);
  void timer_fire(std::size_t layer,
                  const std::function<void(LayerOps&)>& cb);
  /// Ops::now(): the current step's instant (LayerOps::now()).
  Vt step_now();
  /// Open a step at `at` (0 = none: the step reads the clock lazily). An
  /// instant older than one already handed out is refused the same way.
  void open_step(Vt at);
  /// Cost-model charges move only a virtual clock; on any other clock the
  /// engine skips both the charge and the cost lookup.
  void charge(VtDur d) {
    if (virtual_clock_) env_.charge(d);
  }
  void charge_layer(std::size_t layer, VtDur PhaseCosts::*phase) {
    if (virtual_clock_) {
      env_.charge(cfg_.costs.ml_costs(stack_.layer(layer).kind()).*phase);
    }
  }
  Message acquire_message(std::span<const std::uint8_t> payload);
  void retire_message(Message&& m);

  // --- overload-governor hooks (no-ops when cfg_.governor is null) --------
  /// True when the governor's window clamp says the send pipeline is full
  /// enough for the current overload level.
  bool window_clamped() const;
  /// Feed the governor the engine-side pressure signals and advance it.
  void report_pressure();
  /// Front-door admission for both send() overloads: re-feed the backlog,
  /// tick, and ask admit_ingest. False => the send was shed and counted as
  /// kShedIngest.
  bool admit_send();


  PaConfig cfg_;
  Env& env_;
  Stack stack_;
  CompiledLayout layout_;
  PackingFields pf_;
  CompiledFilter csend_;
  CompiledFilter crecv_be_;
  CompiledFilter crecv_le_;
  MessagePool pool_;

  // region sizes (bytes)
  std::size_t ci_ = 0, pr_ = 0, ms_ = 0, go_ = 0, pk_ = 0;
  std::size_t fixed_hdr_ = 0;

  // predicted headers (paper Table 3: predict_msg)
  std::vector<std::uint8_t> pred_send_proto_;
  std::vector<std::uint8_t> pred_send_gossip_;
  std::vector<std::uint8_t> pred_deliver_proto_;
  Endian pred_deliver_endian_;
  // The fixed layers' predictions, made once at construction; the deliver
  // image is kept per peer byte order (indexed by Endian).
  std::vector<std::uint8_t> fixed_send_proto_;
  std::vector<std::uint8_t> fixed_send_gossip_;
  std::array<std::vector<std::uint8_t>, 2> fixed_deliver_proto_;
  std::vector<std::size_t> varying_layers_;  // the rest, top-down
  mutable std::vector<std::uint8_t> scratch_;  // unpredicted regions
  std::vector<std::uint8_t> released_hdr_;     // all-zero header for releases

  int disable_send_ = 0;
  int disable_deliver_ = 0;
  bool send_busy_ = false;     // Table 3 "mode": post-send pending
  bool deliver_busy_ = false;  // post-deliver pending
  bool post_scheduled_ = false;
  bool send_pred_stale_ = false;  // post phases moved it; rebuild before use
  bool first_send_done_ = false;

  std::uint64_t out_cookie_ = 0;
  std::optional<std::uint64_t> learned_peer_cookie_;
  Endian peer_endian_;

  // cookie-epoch recovery state
  std::uint64_t cookie_epoch_ = 0;     // bumped by on_restart()
  std::uint32_t silent_resends_ = 0;   // raw resends since last frame heard
  std::uint32_t recovery_quota_ = 0;   // frames left to carry the conn-ident

  // Overload-governor support: the window layer (for the clamp; null when
  // the stack has none).
  const WindowLayer* win_ = nullptr;

  // Composable-stack seams, derived from the composition at construction:
  // frame codecs (AEAD) run between the header machinery and the wire;
  // a deliver transform (compression inverse) runs per unpacked part.
  std::vector<std::size_t> codec_layers_;      // indices, top-down
  std::size_t deliver_transform_ = SIZE_MAX;   // layer index, or SIZE_MAX
  std::vector<std::uint8_t> part_scratch_;     // decode_part inflate buffer

  std::deque<Message> backlog_;
  // Drained by index and cleared after each post batch, so their storage
  // is reused; appends made during a batch run in that same batch.
  std::vector<Message> pending_post_send_;
  std::vector<PendingDeliver> pending_post_deliver_;
  std::deque<WireFrame> recv_queue_;
  // Released messages bucketed by releasing layer. Messages released by a
  // layer closer to the application are earlier in the upward pipeline than
  // ones released deeper down, so draining picks the smallest layer index
  // first (FIFO within a layer) — this preserves end-to-end FIFO when, e.g.,
  // one frame completes a reassembly at the frag layer while also unblocking
  // the window layer's stash below it.
  std::map<std::size_t, std::deque<Message>> release_buckets_;

  // One instant per step (a post batch or a timer fire; Ops exist only
  // inside one) on a wall clock: a post batch scheduled while a frame is
  // handled (on_frame, the application's callback, sends made from it)
  // opens at the frame's arrival; otherwise the step's first Ops::now()
  // reads the clock, unless the step already read it for its own span.
  // Every later call returns that instant. Under a virtual clock each call
  // reads through, since charge() moves it.
  const bool virtual_clock_;
  bool step_read_ = false;  // step_at_ holds the current step's instant
  Vt step_at_ = 0;
  Vt last_at_ = 0;   // the latest instant handed out
  Vt frame_at_ = 0;  // arrival of the frame being handled, else 0
  Vt post_at_ = 0;   // frame_at_ when the pending batch was scheduled

  EngineStats stats_;
  PhaseSampler<kNumTimedPhases> sampler_;
};

}  // namespace pa
