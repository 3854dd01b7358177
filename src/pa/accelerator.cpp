#include "pa/accelerator.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "layers/window_layer.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"

namespace pa {
namespace {

// Message pool capacity: it must cover the deepest backlog (>=
// kMaxPackBatch) or the pool thrashes and allocation pressure returns.
constexpr std::size_t kPoolCapacity = 256;

// Cookie-epoch recovery (chaos/robustness). After this many consecutive raw
// retransmissions with no frame heard back, assume the peer's router no
// longer knows our cookie (peer restarted, or learned state was wiped) and
// enter recovery. The window layer's RTO already backs off exponentially,
// so "consecutive resends" doubles as an exponential-backoff probe schedule
// for free.
constexpr std::uint32_t kRecoveryResendThreshold = 2;
// While recovering, ship the full connection identification on this many
// outgoing frames so the peer's router can re-learn cookie -> engine.
constexpr std::uint32_t kRecoveryIdentQuota = 8;

// Engine phase histograms (process-global: engines are cheap to create in
// tests, so per-engine histograms would churn the registry; the `owner` tag
// on span events keeps engines distinguishable where it matters). Durations
// are on the engine's Env clock — virtual ns under the simulator (i.e. the
// modeled critical-path cost, directly comparable to the paper's tables),
// wall ns under the real-time loop, where only a sample of calls is timed
// (kPhaseSampleEvery).
struct PhaseHists {
  obs::LatencyHistogram& send_fast;
  obs::LatencyHistogram& send_slow;
  obs::LatencyHistogram& deliver_fast;
  obs::LatencyHistogram& deliver_slow;
  obs::LatencyHistogram& post_send;
  obs::LatencyHistogram& post_deliver;
};

PhaseHists& phase_hists() {
  static PhaseHists h{
      obs::registry().histogram(
          "pa_send_fast_ns", "predicted send critical path (memcpy + filter)"),
      obs::registry().histogram(
          "pa_send_slow_ns", "unpredicted send critical path (stack pre-send)"),
      obs::registry().histogram(
          "pa_deliver_fast_ns",
          "predicted delivery critical path (filter + memcmp)"),
      obs::registry().histogram(
          "pa_deliver_slow_ns",
          "unpredicted delivery critical path (stack pre-deliver)"),
      obs::registry().histogram("pa_post_send_ns",
                                "deferred post-send batch duration"),
      obs::registry().histogram("pa_post_deliver_ns",
                                "deferred post-deliver batch duration"),
  };
  return h;
}

// Close a timed phase that began at t0: one clock read, one histogram
// sample, one span. Returns the end instant.
Vt close_phase(const Env& env, obs::LatencyHistogram& h, obs::SpanKind kind,
               Vt t0, std::uint32_t arg, std::uint16_t owner) {
  const Vt t1 = env.now();
  h.record(static_cast<std::uint64_t>(t1 - t0));
  obs::span(kind, t0, obs::span_dur(t1 - t0), arg, owner);
  return t1;
}

}  // namespace

// ---------------------------------------------------------------------------
// LayerOps adapter: binds a layer index to the engine services.
// ---------------------------------------------------------------------------
class PaEngine::Ops final : public LayerOps {
 public:
  Ops(PaEngine* e, std::size_t layer) : e_(e), layer_(layer) {}

  Vt now() const override { return e_->step_now(); }

  void emit_down(Message msg, std::function<void(HeaderView&)> fill,
                 bool unusual) override {
    e_->emit_down(layer_, std::move(msg), fill, unusual);
  }

  void resend_raw(const Message& msg,
                  std::function<void(HeaderView&)> patch) override {
    e_->resend_raw(msg, patch);
  }

  void release_up(Message msg) override {
    e_->release_buckets_[layer_].push_back(std::move(msg));
  }

  void set_timer(VtDur delay, std::function<void(LayerOps&)> cb) override {
    e_->set_layer_timer(layer_, delay, std::move(cb));
  }

  void disable_send() override { ++e_->disable_send_; }
  void enable_send() override { e_->enable_send_prediction(); }
  void disable_deliver() override { ++e_->disable_deliver_; }
  void enable_deliver() override { --e_->disable_deliver_; }

  void notify_unreachable_peer() override { e_->enter_recovery(); }

 private:
  PaEngine* e_;
  std::size_t layer_;
};

// ---------------------------------------------------------------------------
// Construction: compile the layout and filters, build initial predictions.
// ---------------------------------------------------------------------------
PaEngine::PaEngine(PaConfig cfg, Env& env)
    : cfg_(std::move(cfg)), env_(env), stack_(cfg_.stack.spec),
      pool_(kPoolCapacity), virtual_clock_(env.clock_is_virtual()),
      sampler_(virtual_clock_) {
  pf_ = register_packing_fields(stack_.registry());
  stack_.init();
  layout_ = stack_.registry().compile(LayoutMode::kCompact);
  ci_ = layout_.region_bytes(kRegConnId);
  pr_ = layout_.region_bytes(kRegProto);
  ms_ = layout_.region_bytes(kRegMsgSpec);
  go_ = layout_.region_bytes(kRegGossip);
  pk_ = layout_.region_bytes(kRegPacking);
  fixed_hdr_ = pr_ + ms_ + go_ + pk_;

  if (cfg_.use_compiled_filters) {
    csend_ = CompiledFilter::compile(stack_.send_prog(), layout_,
                                     cfg_.self_endian);
    crecv_be_ =
        CompiledFilter::compile(stack_.recv_prog(), layout_, Endian::kBig);
    crecv_le_ =
        CompiledFilter::compile(stack_.recv_prog(), layout_, Endian::kLittle);
  }

  pred_send_proto_.resize(pr_);
  pred_send_gossip_.resize(go_);
  pred_deliver_proto_.resize(pr_);
  // Message-specific, packing, then the deliver prediction's gossip.
  scratch_.resize(ms_ + pk_ + go_);
  released_hdr_.assign(fixed_hdr_, 0);

  peer_endian_ = cfg_.self_endian;
  pred_deliver_endian_ = peer_endian_;

  Rng cookie_rng(cfg_.cookie_seed);
  out_cookie_ = random_cookie(cookie_rng);

  win_ = dynamic_cast<const WindowLayer*>(stack_.find(LayerKind::kWindow));

  // Composable-stack seams: which layers rewrite frame payloads (AEAD) and
  // which one owns the per-part deliver transform (compression inverse).
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (stack_.layer(i).has_frame_codec()) codec_layers_.push_back(i);
    if (deliver_transform_ == SIZE_MAX &&
        stack_.layer(i).has_deliver_transform()) {
      deliver_transform_ = i;
    }
  }

  predict_fixed_layers();
  rebuild_send_prediction();
  rebuild_deliver_prediction();
}

bool PaEngine::encode_codecs(Message& m, const HeaderView& v, bool charge) {
  for (std::size_t i : codec_layers_) {
    if (charge) charge_layer(i, &PhaseCosts::pre_send);
    if (!stack_.layer(i).encode_frame(m, v)) return false;
  }
  return true;
}

bool PaEngine::decode_codecs(Message& m, const HeaderView& v) {
  for (std::size_t k = codec_layers_.size(); k-- > 0;) {
    const std::size_t i = codec_layers_[k];
    charge_layer(i, &PhaseCosts::pre_deliver);
    if (!stack_.layer(i).decode_frame(m, v)) {
      stats_.drops.bump(DropReason::kAeadAuth);
      return false;
    }
  }
  return true;
}

void PaEngine::preagree_peer_cookie(std::uint64_t cookie) {
  learned_peer_cookie_ = cookie;
}

// ---------------------------------------------------------------------------
// Cookie-epoch recovery (robustness extension).
//
// A crash+restart wipes the peers' routers of our old cookie and hands us a
// fresh one they have never seen. Two independent detectors re-establish the
// cookie -> engine mapping:
//   - the restarted node knows it restarted: it ships the full connection
//     identification on its next few frames (on_restart below);
//   - the surviving node only sees silence: after `kRecoveryResendThreshold`
//     consecutive raw retransmissions with nothing heard back it assumes its
//     cookie was forgotten and starts shipping the identification too. The
//     window layer's RTO doubles between those resends, so the probes back
//     off exponentially without any extra timer.
// ---------------------------------------------------------------------------
void PaEngine::enter_recovery() {
  if (recovery_quota_ == 0) ++stats_.recovery_entries;
  recovery_quota_ = kRecoveryIdentQuota;
  silent_resends_ = 0;
}

void PaEngine::on_restart() {
  ++stats_.restarts;
  ++cookie_epoch_;
  Rng cookie_rng(cfg_.cookie_seed ^ (0x9e3779b97f4a7c15ull * cookie_epoch_));
  out_cookie_ = random_cookie(cookie_rng);
  first_send_done_ = false;
  learned_peer_cookie_.reset();
  recv_queue_.clear();
  silent_resends_ = 0;
  // Announce the fresh cookie: quota (not just the usual first-frame ident)
  // so the announcement survives a lossy link.
  recovery_quota_ = kRecoveryIdentQuota;
}

void PaEngine::enable_send_prediction() {
  assert(disable_send_ > 0);
  if (--disable_send_ == 0) flush_backlog();
}

// ---------------------------------------------------------------------------
// Header view binding.
// ---------------------------------------------------------------------------
HeaderView PaEngine::bind(Message& m, Endian wire) const {
  HeaderView v(&layout_, wire);
  std::uint8_t* h = m.front();
  v.set_region(kRegProto, h);
  v.set_region(kRegMsgSpec, h + pr_);
  v.set_region(kRegGossip, h + pr_ + ms_);
  v.set_region(kRegPacking, h + pr_ + ms_ + go_);
  return v;
}

HeaderView PaEngine::bind_zero_header() {
  // Layers' deliver phases only read through the const HeaderView, so the
  // shared zero buffer stays zero.
  HeaderView v(&layout_, cfg_.self_endian);
  std::uint8_t* h = released_hdr_.data();
  v.set_region(kRegProto, h);
  v.set_region(kRegMsgSpec, h + pr_);
  v.set_region(kRegGossip, h + pr_ + ms_);
  v.set_region(kRegPacking, h + pr_ + ms_ + go_);
  return v;
}

HeaderView PaEngine::bind_prediction(std::uint8_t* proto,
                                     std::uint8_t* gossip,
                                     Endian wire) const {
  HeaderView v(&layout_, wire);
  v.set_region(kRegProto, proto);
  v.set_region(kRegGossip, gossip);
  v.set_region(kRegMsgSpec, scratch_.data());
  v.set_region(kRegPacking, scratch_.data() + ms_);
  return v;
}

// ---------------------------------------------------------------------------
// Message allocation through the pool (paper §6: explicit alloc/dealloc of
// high-bandwidth objects suppresses GC pressure).
// ---------------------------------------------------------------------------
Message PaEngine::acquire_message(std::span<const std::uint8_t> payload) {
  if (!cfg_.use_message_pool) {
    Message m = Message::with_payload(payload);
    env_.on_alloc(m.capacity());
    return m;
  }
  const std::uint64_t fresh_before = pool_.stats().fresh_allocations;
  Message m = pool_.acquire_with_payload(payload);
  if (pool_.stats().fresh_allocations != fresh_before) {
    env_.on_alloc(m.capacity());
  }
  return m;
}

void PaEngine::retire_message(Message&& m) {
  if (cfg_.use_message_pool) pool_.release(std::move(m));
}

// ---------------------------------------------------------------------------
// Send path (paper Figure 3, send()).
// ---------------------------------------------------------------------------
// Governor hooks -------------------------------------------------------------

bool PaEngine::window_clamped() const {
  if (!cfg_.governor || !win_) return false;
  return win_->in_flight() >= cfg_.governor->window_clamp(win_->size());
}

void PaEngine::report_pressure() {
  if (!cfg_.governor) return;
  cfg_.governor->report_backlog(backlog_.size());
  cfg_.governor->report_recv_queue(recv_queue_.size());
  const MessagePool::Stats& ps = pool_.stats();
  const std::uint64_t in_use =
      ps.acquires >= ps.releases ? ps.acquires - ps.releases : 0;
  cfg_.governor->report_pool(static_cast<std::size_t>(in_use),
                             kPoolCapacity);
  cfg_.governor->tick(env_.now());
}

bool PaEngine::admit_send() {
  if (!cfg_.governor) return true;
  // Admission control runs before any allocation or chain adoption: under
  // pressure the cheapest place to refuse work is the front door, and the
  // shed stays O(1) whatever the fanout. The signal is re-fed here (not
  // just from run_posts) so a send-side blast raises pressure even before
  // any frame returns.
  const std::size_t depth = backlog_.size();
  cfg_.governor->report_backlog(depth);
  cfg_.governor->tick(env_.now());
  if (cfg_.governor->admit_ingest(depth)) return true;
  stats_.drops.bump(DropReason::kShedIngest);
  return false;
}

// ---------------------------------------------------------------------------

void PaEngine::send(std::span<const std::uint8_t> payload) {
  ++stats_.app_sends;
  if (!admit_send()) return;
  submit(acquire_message(payload));
}

void PaEngine::send(Message m) {
  // The zero-copy twin of send(span): the caller transfers ownership of a
  // message whose payload chain is already chunked (a group sender clones
  // one chain to N connections via refcount bumps). No ingest copy happens
  // here — the chain is adopted as-is.
  ++stats_.app_sends;
  if (!admit_send()) return;
  env_.on_alloc(m.capacity());
  submit(std::move(m));
}

void PaEngine::submit(Message m) {
  // Send-side message transformation (fragmentation) runs above the
  // canonical phases. In the paper the PA's send filter rejects oversized
  // messages and the stack fragments them; transforming here first is the
  // same decision taken one step earlier — the filter's size check remains
  // as defense in depth.
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    std::vector<Message> parts = stack_.layer(i).transform_send(m);
    if (!parts.empty()) {
      for (Message& p : parts) {
        env_.on_alloc(p.capacity());
        submit(std::move(p));
      }
      return;
    }
  }
  enqueue_or_send(std::move(m));
}

void PaEngine::enqueue_or_send(Message m) {
  if (send_busy_ || disable_send_ > 0 || !backlog_.empty() ||
      window_clamped()) {
    ++stats_.backlogged;
    // Message creation + backlog append runs in the (slow, O'Caml) app
    // process — this per-message cost is what bounds the paper's 80k
    // msgs/sec streaming rate.
    charge(cfg_.costs.pa_backlog_per_msg);
    backlog_.push_back(std::move(m));
    return;
  }
  const std::uint64_t len = m.payload_len();
  start_send(std::move(m), 1, len, false);
}

void PaEngine::start_send(Message m, std::uint64_t pk_count,
                          std::uint64_t pk_each, bool pk_var) {
  const bool is_timed = sampler_.timed(kTimeSend);
  const Vt t0 = is_timed ? env_.now() : 0;
  send_busy_ = true;
  std::uint8_t* h = m.push(fixed_hdr_);
  std::memset(h, 0, fixed_hdr_);
  HeaderView v = bind(m, cfg_.self_endian);
  v.set(pf_.var, pk_var ? 1 : 0);
  v.set(pf_.count, pk_count & 0xffff);
  v.set(pf_.each, pk_each > 0xffff ? 0 : pk_each);

  const bool try_fast = !m.cb.is_frag && !m.cb.protocol &&
                        disable_send_ == 0 && !cfg_.disable_prediction;
  bool encoded = false;  // frame codecs (AEAD) applied exactly once per frame
  if (try_fast) {
    // A send from inside a post batch (a drained release, a re-enabled
    // window) can find the prediction marked stale: bring it up to date.
    if (send_pred_stale_) rebuild_send_prediction();
    // Predicted protocol-specific + gossip headers (paper §3.2), then the
    // send filter fills the message-specific fields (§3.3).
    // Guards: a minimal stack may register no fields in a class, and the
    // empty prediction vector's data() is then null (UB to memcpy from).
    if (pr_ > 0) std::memcpy(h, pred_send_proto_.data(), pr_);
    if (go_ > 0) std::memcpy(h + pr_ + ms_, pred_send_gossip_.data(), go_);
    // Frame codecs run before the filter so the bottom checksum the filter
    // computes covers the ciphertext + tag, exactly as the slow path would.
    // The predicted proto region already carries the nonce the codec reads.
    if (!codec_layers_.empty()) {
      encode_codecs(m, v, /*charge=*/true);
      encoded = true;
    }
    const std::int64_t rc =
        cfg_.use_compiled_filters
            ? csend_.run(v, m)
            : run_filter(stack_.send_prog(), v, m);
    if (rc != 0) {
      ++stats_.fast_sends;
      transmit(m, false);
      const std::uint32_t len = static_cast<std::uint32_t>(m.payload_len());
      queue_post_send(std::move(m));
      if (is_timed) {
        close_phase(env_, phase_hists().send_fast, obs::SpanKind::kSendFast,
                    t0, len, obs_id_);
      }
      return;
    }
    // Send filter rejected the predicted frame — an unusual reroute worth a
    // trace mark on every call, sampled or not (the fast path itself records
    // no filter event).
    obs::span(obs::SpanKind::kFilterSend, is_timed ? t0 : env_.now(), 0, 0,
              obs_id_);
  }

  // Slow path: the stack's pre-send phases build the headers.
  ++stats_.slow_sends;
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    charge_layer(i, &PhaseCosts::pre_send);
    SendVerdict sv = stack_.layer(i).pre_send(m, v);
    if (sv == SendVerdict::kRefuse) {
      // Window filled between our disable-counter check and here; park the
      // message at the head of the backlog. If the fast path already ran
      // the frame codecs (it encodes before its filter, which then refused
      // the frame), undo them — the backlog must hold plaintext, or the
      // retried send would encrypt twice. The header still carries the
      // predicted nonce, so the inverse verifies cleanly.
      if (encoded) {
        for (std::size_t k = codec_layers_.size(); k-- > 0;) {
          stack_.layer(codec_layers_[k]).decode_frame(m, v);
        }
      }
      m.pop(fixed_hdr_);
      backlog_.push_front(std::move(m));
      send_busy_ = false;
      return;
    }
    if (!encoded && stack_.layer(i).has_frame_codec()) {
      // Codec runs right after its own pre_send wrote the varying header
      // fields (nonce) and before the bottom layer checksums the frame.
      stack_.layer(i).encode_frame(m, v);
    }
  }
  transmit(m, m.cb.retransmit);
  const std::uint32_t len = static_cast<std::uint32_t>(m.payload_len());
  queue_post_send(std::move(m));
  if (is_timed) {
    close_phase(env_, phase_hists().send_slow, obs::SpanKind::kSendSlow, t0,
                len, obs_id_);
  }
}

void PaEngine::transmit(Message& m, bool unusual) {
  const bool include_ci = cfg_.always_send_conn_ident ||
                          (!first_send_done_ && !cfg_.cookie_preagreed) ||
                          unusual || m.cb.retransmit ||
                          recovery_quota_ > 0;
  if (include_ci && recovery_quota_ > 0) --recovery_quota_;
  if (include_ci) {
    std::uint8_t* cb = m.push(ci_);
    std::memset(cb, 0, ci_);
    HeaderView cv(&layout_, cfg_.self_endian);
    cv.set_region(kRegConnId, cb);
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      stack_.layer(i).write_conn_ident(cv, /*incoming=*/false);
    }
    ++stats_.conn_ident_sent;
  }
  std::uint8_t* pb = m.push(kPreambleBytes);
  encode_preamble(pb, Preamble{include_ci, cfg_.self_endian, out_cookie_});

  charge(cfg_.costs.pa_send_path);
  ++stats_.frames_out;
  // Scatter-gather emission: the frame references the message's header chunk
  // and payload chain directly — no copy. The refcounts pin those bytes
  // while the frame is in flight; post-send hooks only read the message
  // (const), so nothing mutates them underneath the network.
  env_.send_frame(m.to_wire());
  first_send_done_ = true;
  // Strip preamble/conn-ident again: retransmission copies saved during
  // post-processing must be the fixed-header message only.
  m.pop(kPreambleBytes + (include_ci ? ci_ : 0));
}

void PaEngine::queue_post_send(Message m) {
  pending_post_send_.push_back(std::move(m));
  schedule_post();
}

void PaEngine::schedule_post() {
  if (post_scheduled_) return;
  post_scheduled_ = true;
  post_at_ = frame_at_;
  env_.defer([this] { run_posts(); });
}

// ---------------------------------------------------------------------------
// Deferred post-processing: the protocol stack runs here, off the critical
// path, in the order of the paper's Figure 4 (post-send, post-deliver, GC,
// then the backlog and any parked incoming frames).
// ---------------------------------------------------------------------------
void PaEngine::run_posts() {
  post_scheduled_ = false;

  // One clock read per boundary: post-deliver starts where post-send ends.
  const bool is_timed = sampler_.timed(kTimePosts);
  const Vt ts0 = is_timed ? env_.now() : 0;
  Vt td0 = ts0;
  open_step(is_timed ? ts0 : post_at_);
  const bool had_sends = !pending_post_send_.empty();
  const std::uint32_t n_sends =
      static_cast<std::uint32_t>(pending_post_send_.size());
  // By index: a post phase may queue another send, which runs in this batch.
  for (std::size_t k = 0; k < pending_post_send_.size(); ++k) {
    Message m = std::move(pending_post_send_[k]);
    HeaderView v = bind(m, cfg_.self_endian);
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      charge_layer(i, &PhaseCosts::post_send);
      Ops ops(this, i);
      stack_.layer(i).post_send(m, v, ops);
    }
    drain_releases();
    retire_message(std::move(m));
  }
  pending_post_send_.clear();
  if (had_sends) {
    send_pred_stale_ = true;  // post-deliver may move it too: rebuilt below
    send_busy_ = false;
    if (is_timed) {
      td0 = close_phase(env_, phase_hists().post_send,
                        obs::SpanKind::kPostSend, ts0, n_sends, obs_id_);
    }
  }

  const bool had_delivers = !pending_post_deliver_.empty();
  const std::uint32_t n_delivers =
      static_cast<std::uint32_t>(pending_post_deliver_.size());
  for (std::size_t k = 0; k < pending_post_deliver_.size(); ++k) {
    PendingDeliver pd = std::move(pending_post_deliver_[k]);
    HeaderView v = bind(pd.msg, static_cast<Endian>(pd.msg.cb.wire_endian));
    for (std::size_t i = stack_.size(); i-- > pd.stop;) {
      charge_layer(i, &PhaseCosts::post_deliver);
      Ops ops(this, i);
      DeliverVerdict verdict =
          (i == pd.stop) ? pd.verdict : DeliverVerdict::kDeliver;
      stack_.layer(i).post_deliver(pd.msg, v, verdict, ops);
    }
    drain_releases();
    retire_message(std::move(pd.msg));
  }
  pending_post_deliver_.clear();
  if (had_delivers) {
    rebuild_deliver_prediction();
    // Delivery post-processing also moves send-side gossip (the cumulative
    // ack), so the next outgoing message must not trail one message behind.
    send_pred_stale_ = true;
  }
  // One send-prediction rebuild per batch, whichever phases moved it.
  if (send_pred_stale_) rebuild_send_prediction();
  if (had_delivers) {
    deliver_busy_ = false;
    if (is_timed) {
      close_phase(env_, phase_hists().post_deliver,
                  obs::SpanKind::kPostDeliver, td0, n_delivers, obs_id_);
    }
  }

  env_.gc_point();
  flush_backlog();
  process_recv_queue();
  // Post-processing is the engine's natural heartbeat: queues are at their
  // truest here (backlog flushed, recv queue drained as far as it goes).
  report_pressure();
}

// ---------------------------------------------------------------------------
// Backlog + packing (paper §3.4).
// ---------------------------------------------------------------------------
void PaEngine::flush_backlog() {
  if (send_busy_ || disable_send_ > 0 || backlog_.empty()) return;
  // Under overload the governor clamps the effective window: leave the
  // backlog parked until in-flight drains below the clamp. (Acks and RTO
  // timers both re-enter here, so the pipeline cannot stall for good.)
  if (window_clamped()) return;

  Message first = std::move(backlog_.front());
  backlog_.pop_front();
  const std::uint64_t first_len = first.payload_len();

  const bool packable =
      cfg_.enable_packing && !first.cb.is_frag && !first.cb.protocol;
  if (!packable || backlog_.empty()) {
    start_send(std::move(first), 1, first_len, false);
    return;
  }

  // Shrink the packing train under pressure: long trains amortize headers
  // but widen the burst each reception must absorb.
  const std::size_t pack_limit =
      cfg_.governor ? cfg_.governor->pack_batch_limit(kMaxPackBatch)
                    : kMaxPackBatch;

  std::vector<Message> batch;
  std::size_t total = first.payload_len();
  batch.push_back(std::move(first));

  auto can_take = [&](const Message& next) {
    if (next.cb.is_frag || next.cb.protocol) return false;
    if (batch.size() >= pack_limit) return false;
    if (cfg_.variable_packing) {
      return total + next.payload_len() + 2 * (batch.size() + 1) <=
             kMaxPackBytes;
    }
    return next.payload_len() == first_len &&
           total + next.payload_len() <= kMaxPackBytes;
  };
  while (!backlog_.empty() && can_take(backlog_.front())) {
    total += backlog_.front().payload_len();
    batch.push_back(std::move(backlog_.front()));
    backlog_.pop_front();
  }

  if (batch.size() == 1) {
    start_send(std::move(batch.front()), 1, first_len, false);
    return;
  }

  ++stats_.packed_batches;
  stats_.packed_msgs += batch.size();
  mark(sampler_.timed(kTimeFlush), obs::SpanKind::kBacklogFlush, env_,
       static_cast<std::uint32_t>(batch.size()));
  Message packed = cfg_.variable_packing ? pack_variable(batch)
                                         : pack_same_size(batch);
  env_.on_alloc(packed.capacity());
  for (Message& b : batch) retire_message(std::move(b));
  start_send(std::move(packed), batch.size(),
             cfg_.variable_packing ? 0 : first_len, cfg_.variable_packing);
}

// ---------------------------------------------------------------------------
// Delivery path (paper Figure 3, from_network() / deliver()).
// ---------------------------------------------------------------------------
void PaEngine::on_frame(WireFrame frame, Vt at) {
  ++stats_.frames_in;
  if (deliver_busy_) {
    // Post-processing of the previous delivery is still pending: the
    // message waits (paper §3.4 — this is the backlog that packing was
    // invented to shrink, on the send side), up to kMaxRecvQueue frames.
    if (recv_queue_.size() >= kMaxRecvQueue) {
      stats_.drops.bump(DropReason::kRecvQueueFull);
      return;
    }
    ++stats_.recv_queued;
    recv_queue_.push_back(std::move(frame));
    return;
  }
  // A post batch this frame schedules (its post-deliver, or the post-send
  // of a reply the application sends from its callback) opens at `at`.
  const Vt outer = frame_at_;
  frame_at_ = at;
  process_frame(std::move(frame));
  frame_at_ = outer;
}

void PaEngine::process_frame(WireFrame frame) {
  const bool is_timed = sampler_.timed(kTimeFrame);
  const Vt t0 = is_timed ? env_.now() : 0;
  // Peek the preamble before adopting the frame: its bytes live in the
  // frame's chunks, which the message below keeps alive. The frame is
  // adopted without copying — the receive path's one flat-buffer copy is
  // gone.
  std::vector<std::uint8_t> pscratch;
  const auto preamble_bytes = frame.prefix(kPreambleBytes, pscratch);
  Message m = Message::from_wire(std::move(frame));
  env_.on_alloc(m.capacity());

  auto p = decode_preamble(preamble_bytes);
  if (!p) {
    stats_.drops.bump(DropReason::kMalformedPreamble);
    return;
  }
  const std::size_t total_hdr =
      kPreambleBytes + (p->conn_ident_present ? ci_ : 0) + fixed_hdr_;
  if (m.size() < total_hdr) {
    stats_.drops.bump(DropReason::kTruncatedHeader);
    return;
  }
  // Any frame that parses proves the peer is alive and still addressing us:
  // the silence detector starts over.
  silent_resends_ = 0;
  m.set_header_len(total_hdr);
  m.pop(kPreambleBytes);
  if (p->conn_ident_present) {
    // Router already matched the identification; learn cookie + byte order.
    learned_peer_cookie_ = p->cookie;
    m.pop(ci_);
  }
  m.cb.wire_endian = static_cast<std::uint8_t>(p->byte_order);
  peer_endian_ = p->byte_order;

  env_.on_reception();

  HeaderView v = bind(m, p->byte_order);
  const std::int64_t rc =
      cfg_.use_compiled_filters
          ? (p->byte_order == Endian::kBig ? crecv_be_ : crecv_le_).run(v, m)
          : run_filter(stack_.recv_prog(), v, m);
  if (is_timed) {
    obs::span(obs::SpanKind::kFilterRecv, t0, 0,
              static_cast<std::uint32_t>(rc != 0), obs_id_);
  }
  if (rc == 0) {
    stats_.drops.bump(DropReason::kChecksumFilter);
    return;
  }

  const bool predicted =
      disable_deliver_ == 0 && !cfg_.disable_prediction &&
      pred_deliver_endian_ == p->byte_order &&
      (pr_ == 0 ||  // no proto-spec fields: trivially matches (null data())
       std::memcmp(m.front(), pred_deliver_proto_.data(), pr_) == 0);

  charge(cfg_.costs.pa_deliver_path);

  if (predicted) {
    // Frame codecs invert bottom-up before the payload is touched. An auth
    // failure drops the frame outright: no post phase is queued, so the
    // prediction (nonce cursor) is untouched — correct, since the peer's
    // cursor did not advance for a frame we refuse.
    if (!codec_layers_.empty() && !decode_codecs(m, v)) return;
    ++stats_.fast_delivers;
    // The hand-up instant: deliver.fast closes after the application's
    // callback, which may do arbitrary work (an echo's whole reply send).
    mark(is_timed, obs::SpanKind::kDeliverApp, env_);
    deliver_to_app(m, true);
    if (is_timed) {
      close_phase(env_, phase_hists().deliver_fast,
                  obs::SpanKind::kDeliverFast, t0,
                  static_cast<std::uint32_t>(m.payload_len()), obs_id_);
    }
    deliver_busy_ = true;
    pending_post_deliver_.push_back(
        PendingDeliver{std::move(m), 0, DeliverVerdict::kDeliver});
    schedule_post();
    return;
  }

  // Slow path: the stack's pre-deliver phases check the message.
  ++stats_.slow_delivers;
  ++stats_.predict_misses;
  std::size_t stop = 0;
  DeliverVerdict verdict = DeliverVerdict::kDeliver;
  for (std::size_t i = stack_.size(); i-- > 0;) {
    charge_layer(i, &PhaseCosts::pre_deliver);
    verdict = stack_.layer(i).pre_deliver(m, v);
    stop = i;
    if (verdict != DeliverVerdict::kDeliver) {
      if (stack_.layer(i).kind() == LayerKind::kRelay &&
          verdict == DeliverVerdict::kDrop) {
        stats_.drops.bump(DropReason::kMisroutedHop);
      }
      break;
    }
    if (stack_.layer(i).has_frame_codec() &&
        !stack_.layer(i).decode_frame(m, v)) {
      stats_.drops.bump(DropReason::kAeadAuth);
      verdict = DeliverVerdict::kDrop;
      break;
    }
  }
  if (verdict == DeliverVerdict::kDeliver) {
    mark(is_timed, obs::SpanKind::kDeliverApp, env_, 1);
    deliver_to_app(m, true);
  }
  if (is_timed) {
    close_phase(env_, phase_hists().deliver_slow, obs::SpanKind::kDeliverSlow,
                t0,
                static_cast<std::uint32_t>(verdict == DeliverVerdict::kDeliver),
                obs_id_);
  }
  deliver_busy_ = true;
  pending_post_deliver_.push_back(PendingDeliver{std::move(m), stop, verdict});
  schedule_post();
}

void PaEngine::process_recv_queue() {
  while (!recv_queue_.empty() && !deliver_busy_) {
    WireFrame f = std::move(recv_queue_.front());
    recv_queue_.pop_front();
    process_frame(std::move(f));
  }
}

void PaEngine::deliver_part(std::span<const std::uint8_t> part) {
  if (deliver_transform_ != SIZE_MAX) {
    // Deliver-side transform inverse (decompression), applied per
    // application message: a packed train carries independently coded
    // parts, and reassembled fragment trains arrive here too.
    const Layer& l = stack_.layer(deliver_transform_);
    charge_layer(deliver_transform_, &PhaseCosts::pre_deliver);
    std::span<const std::uint8_t> res;
    if (!l.decode_part(part, res, part_scratch_)) {
      stats_.drops.bump(DropReason::kCompCodec);
      return;
    }
    ++stats_.delivered_to_app;
    env_.deliver(res);
    return;
  }
  ++stats_.delivered_to_app;
  env_.deliver(part);
}

void PaEngine::deliver_to_app(Message& m, bool charge_unpack) {
  if (m.header_len() == 0) {
    // Synthesized message (e.g. a reassembled fragment train): no packing
    // header, the payload is one application message.
    deliver_part(m.payload());
    return;
  }
  HeaderView v = bind(m, static_cast<Endian>(m.cb.wire_endian));
  const bool var = v.get(pf_.var) != 0;
  const std::uint64_t count = v.get(pf_.count);
  const std::uint64_t each = v.get(pf_.each);

  if (count <= 1 && !var) {
    deliver_part(m.payload());
    return;
  }
  std::vector<std::span<const std::uint8_t>> parts;
  if (!unpack_payload(m.payload(), var, count, each, parts)) {
    stats_.drops.bump(DropReason::kMalformedPacking);
    return;
  }
  if (charge_unpack && parts.size() > 1) {
    charge(cfg_.costs.pa_per_packed_extra *
           static_cast<VtDur>(parts.size() - 1));
  }
  for (auto part : parts) {
    deliver_part(part);
  }
}

// ---------------------------------------------------------------------------
// Releases: stashed messages handed back upward during post phases.
// ---------------------------------------------------------------------------
void PaEngine::drain_releases() {
  while (!release_buckets_.empty()) {
    auto bucket = release_buckets_.begin();  // smallest layer index first
    const std::size_t from = bucket->first;
    Message m = std::move(bucket->second.front());
    bucket->second.pop_front();
    if (bucket->second.empty()) release_buckets_.erase(bucket);

    if (from == 0) {
      deliver_to_app(m, false);
      retire_message(std::move(m));
      continue;
    }

    // A released message is usually synthesized above the wire (reassembly
    // splices fragment payload chains into a fresh Message) and carries no
    // header bytes — binding m.front() there would read out-of-bounds
    // garbage and upper layers could mistake it for e.g. a beacon. Re-run
    // them over an all-zero header instead: absent flags/gossip are inert
    // by the stack contract (paper §2.1).
    HeaderView v = m.header_len() >= fixed_hdr_
                       ? bind(m, static_cast<Endian>(m.cb.wire_endian))
                       : bind_zero_header();
    std::size_t stop = from - 1;
    DeliverVerdict verdict = DeliverVerdict::kDeliver;
    for (std::size_t i = from; i-- > 0;) {
      charge_layer(i, &PhaseCosts::pre_deliver);
      verdict = stack_.layer(i).pre_deliver(m, v);
      stop = i;
      if (verdict != DeliverVerdict::kDeliver) break;
    }
    if (verdict == DeliverVerdict::kDeliver) deliver_to_app(m, false);
    for (std::size_t i = from; i-- > stop;) {
      charge_layer(i, &PhaseCosts::post_deliver);
      Ops ops(this, i);
      DeliverVerdict vd =
          (i == stop) ? verdict : DeliverVerdict::kDeliver;
      stack_.layer(i).post_deliver(m, v, vd, ops);
    }
    retire_message(std::move(m));
  }
}

// ---------------------------------------------------------------------------
// Header prediction (paper §3.2).
// ---------------------------------------------------------------------------
// Layers write disjoint fields, so the fixed layers' bytes can be written
// once and copied: what a rebuild adds is only the varying layers' fields.
void PaEngine::predict_fixed_layers() {
  fixed_send_proto_.assign(pr_, 0);
  fixed_send_gossip_.assign(go_, 0);
  HeaderView sv = bind_prediction(fixed_send_proto_.data(),
                                  fixed_send_gossip_.data(), cfg_.self_endian);
  std::array<HeaderView, 2> dv;
  for (const Endian e : {Endian::kBig, Endian::kLittle}) {
    std::vector<std::uint8_t>& img =
        fixed_deliver_proto_[static_cast<std::size_t>(e)];
    img.assign(pr_, 0);
    dv[static_cast<std::size_t>(e)] =
        bind_prediction(img.data(), scratch_.data() + ms_ + pk_, e);
  }
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    const Layer& l = stack_.layer(i);
    if (!l.traits().fixed_prediction) {
      varying_layers_.push_back(i);
      continue;
    }
    l.predict_send(sv);
    for (HeaderView& v : dv) l.predict_deliver(v);
  }
}

void PaEngine::predict_send_into(std::uint8_t* proto, std::uint8_t* gossip,
                                 bool from_scratch) const {
  HeaderView v = bind_prediction(proto, gossip, cfg_.self_endian);
  if (from_scratch) {
    std::fill_n(proto, pr_, 0);
    std::fill_n(gossip, go_, 0);
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      stack_.layer(i).predict_send(v);
    }
    return;
  }
  std::copy_n(fixed_send_proto_.data(), pr_, proto);
  std::copy_n(fixed_send_gossip_.data(), go_, gossip);
  for (std::size_t i : varying_layers_) stack_.layer(i).predict_send(v);
}

void PaEngine::predict_deliver_into(std::uint8_t* proto,
                                    bool from_scratch) const {
  // Gossip is not compared on delivery; give predict_deliver writers of
  // gossip fields a scratch area.
  HeaderView v =
      bind_prediction(proto, scratch_.data() + ms_ + pk_, peer_endian_);
  if (from_scratch) {
    std::fill_n(proto, pr_, 0);
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      stack_.layer(i).predict_deliver(v);
    }
    return;
  }
  std::copy_n(fixed_deliver_proto_[static_cast<std::size_t>(peer_endian_)]
                  .data(),
              pr_, proto);
  for (std::size_t i : varying_layers_) stack_.layer(i).predict_deliver(v);
}

void PaEngine::rebuild_send_prediction() {
  predict_send_into(pred_send_proto_.data(), pred_send_gossip_.data(),
                    /*from_scratch=*/false);
  send_pred_stale_ = false;
}

void PaEngine::rebuild_deliver_prediction() {
  predict_deliver_into(pred_deliver_proto_.data(), /*from_scratch=*/false);
  pred_deliver_endian_ = peer_endian_;
}

bool PaEngine::predictions_fresh() const {
  std::vector<std::uint8_t> proto(pr_), gossip(go_);
  predict_send_into(proto.data(), gossip.data(), /*from_scratch=*/true);
  if (proto != pred_send_proto_ || gossip != pred_send_gossip_) return false;
  predict_deliver_into(proto.data(), /*from_scratch=*/true);
  return pred_deliver_endian_ == peer_endian_ && proto == pred_deliver_proto_;
}

// ---------------------------------------------------------------------------
// Protocol-generated messages.
// ---------------------------------------------------------------------------
void PaEngine::emit_down(std::size_t from_layer, Message m,
                         const std::function<void(HeaderView&)>& fill,
                         bool unusual) {
  if (cfg_.governor) {
    // Priority-aware shedding: control traffic that the protocol can repair
    // goes first. Liveness beacons are pure gossip (the peer's failure
    // detector tolerates misses up to its timeout); standalone window acks
    // are re-emitted by the ack-every counter and the delayed-ack timer, and
    // data's piggybacked gossip still flows. Data and NAK repairs are never
    // shed here.
    switch (stack_.layer(from_layer).shed_class()) {
      case ShedClass::kLiveness:
        if (cfg_.governor->shed_heartbeat()) {
          stats_.drops.bump(DropReason::kShedHeartbeat);
          retire_message(std::move(m));
          return;
        }
        break;
      case ShedClass::kGossipAck:
        if (cfg_.governor->shed_gossip()) {
          stats_.drops.bump(DropReason::kShedGossip);
          retire_message(std::move(m));
          return;
        }
        break;
      case ShedClass::kNever:
        break;
    }
  }
  ++stats_.protocol_emits;
  env_.on_alloc(m.capacity());
  m.cb.protocol = true;

  std::uint8_t* h = m.push(fixed_hdr_);
  std::memset(h, 0, fixed_hdr_);
  HeaderView v = bind(m, cfg_.self_endian);
  v.set(pf_.var, 0);
  v.set(pf_.count, 1);
  v.set(pf_.each, m.payload_len() > 0xffff ? 0 : m.payload_len());
  fill(v);

  for (std::size_t i = from_layer + 1; i < stack_.size(); ++i) {
    charge_layer(i, &PhaseCosts::pre_send);
    if (stack_.layer(i).pre_send(m, v) == SendVerdict::kRefuse) {
      return;  // lower layer cannot carry it now; drop (acks are repairable)
    }
    if (stack_.layer(i).has_frame_codec()) {
      // Protocol messages (acks, NAK repairs, beacons) are sealed too —
      // every frame below the codec layer is ciphertext, each with its own
      // nonce taken in the pre_send just above.
      stack_.layer(i).encode_frame(m, v);
    }
  }
  transmit(m, unusual);
  mark(sampler_.timed(kTimeProto), obs::SpanKind::kSendProto, env_);
  for (std::size_t i = from_layer + 1; i < stack_.size(); ++i) {
    charge_layer(i, &PhaseCosts::post_send);
    Ops ops(this, i);
    stack_.layer(i).post_send(m, v, ops);
  }
  retire_message(std::move(m));
}

void PaEngine::resend_raw(const Message& stored,
                          const std::function<void(HeaderView&)>& patch) {
  ++stats_.raw_resends;
  if (++silent_resends_ >= kRecoveryResendThreshold) enter_recovery();
  Message m = stored.clone();
  env_.on_alloc(m.capacity());
  m.cb.retransmit = true;
  HeaderView v = bind(m, cfg_.self_endian);
  patch(v);
  // The patch may flip header bits the bottom layer's checksum covers (the
  // retransmission marker): refresh the integrity fields. Bottom pre-send is
  // idempotent — it only rewrites length + checksum.
  if (stack_.size() > 0) {
    const Layer& last = stack_.layer(stack_.size() - 1);
    if (last.kind() == LayerKind::kBottom) last.pre_send(m, v);
  }
  transmit(m, /*unusual=*/true);
  mark(sampler_.timed(kTimeRexmit), obs::SpanKind::kSendRexmit, env_);
  retire_message(std::move(m));
}

void PaEngine::timer_fire(std::size_t layer,
                          const std::function<void(LayerOps&)>& cb) {
  const Vt t0 = env_.now();
  open_step(t0);
  charge(cfg_.costs.timer_cost);
  Ops ops(this, layer);
  cb(ops);
  drain_releases();
  // Timer work (ack emission, retransmission bookkeeping) may have moved
  // protocol state; refresh predictions before the next fast-path use.
  rebuild_send_prediction();
  rebuild_deliver_prediction();
  flush_backlog();
  obs::span(obs::SpanKind::kTimerFire, t0, obs::span_dur(env_.now() - t0),
            static_cast<std::uint32_t>(layer), obs_id_);
}

Vt PaEngine::step_now() {
  if (virtual_clock_) return env_.now();
  if (!step_read_) {
    // The max keeps the instants monotonic even if an accepted arrival
    // instant ran ahead of this Env's clock.
    step_at_ = last_at_ = std::max(last_at_, env_.now());
    step_read_ = true;
  }
  return step_at_;
}

void PaEngine::open_step(Vt at) {
  step_read_ = at != 0 && at >= last_at_;
  if (step_read_) step_at_ = last_at_ = at;
}

void PaEngine::set_layer_timer(std::size_t layer, VtDur delay,
                               std::function<void(LayerOps&)> cb) {
  env_.set_timer(delay, [this, layer, cb = std::move(cb)] {
    timer_fire(layer, cb);
  });
}

// ---------------------------------------------------------------------------
// Router support.
// ---------------------------------------------------------------------------
bool PaEngine::match_ident(std::span<const std::uint8_t> frame) const {
  auto p = decode_preamble(frame);
  if (!p || !p->conn_ident_present) return false;
  if (frame.size() < kPreambleBytes + ci_ + fixed_hdr_) return false;
  HeaderView v(&layout_, p->byte_order);
  v.set_region(kRegConnId,
               const_cast<std::uint8_t*>(frame.data() + kPreambleBytes));
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    if (!stack_.layer(i).match_conn_ident(v)) return false;
  }
  return true;
}

}  // namespace pa
