#include "group/mcast.h"

#include <cassert>
#include <cstring>

#include "layers/window_layer.h"
#include "obs/bridge.h"
#include "util/byte_order.h"

namespace pa::group {

namespace {
constexpr std::size_t kGroupHdr = 8;  // [u32 seq][u16 src][u16 flags]
// Send-timestamp history bound for delivery-latency tracking: caps
// sent_at_ when a member never acks, so stability never prunes it.
constexpr std::size_t kSendHistory = 4096;

GroupGossipLayer* find_gossip(Stack& stack) {
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (auto* g = dynamic_cast<GroupGossipLayer*>(&stack.layer(i))) return g;
  }
  return nullptr;
}
}  // namespace

McastGroup::McastGroup(World& w, Node& sender,
                       const std::vector<Node*>& members, McastOptions opt)
    : w_(&w),
      opt_(std::move(opt)),
      sender_node_(&sender),
      member_nodes_(members),
      sender_out_(std::make_shared<GossipOutbound>()),
      health_(health_hooks()) {
  const std::size_t n = members.size();
  sender_eps_.reserve(n);
  member_eps_.reserve(n);
  member_outs_.reserve(n);
  user_fns_.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    const MemberId mi = static_cast<MemberId>(i);
    const std::uint8_t prio =
        i < opt_.priorities.size() ? opt_.priorities[i] : 1;
    view_.join(mi, prio);
    health_.track(mi);
    // Before any gossip arrives, judge each member against the configured
    // beacon cadence rather than the detector's generic default.
    if (opt_.beacon_interval > 0) health_.prime(mi, opt_.beacon_interval);
    member_outs_.push_back(std::make_shared<GossipOutbound>());
    member_hists_.emplace_back();

    ConnOptions c = opt_.conn;
    c.use_pa = true;                   // fanout is cookie-routed
    c.engine.cookie_preagreed = true;  // no ident scans in a 1k-engine router

    GroupGossipConfig gcfg;
    gcfg.beacon_interval = opt_.beacon_interval;
    // Low-priority members' liveness goes first under overload; the rest
    // keep their beacons until Critical.
    gcfg.shed = prio == 0 ? ShedClass::kLiveness : ShedClass::kGossipAck;

    // World::connect builds the a-side engine first, then the b-side; the
    // factory below relies on that to hand the coordinator-facing layer to
    // the a side and the member-facing layer to the b side.
    c.engine.stack.spec.push_top(LayerSpec::custom(
        [this, mi, gcfg, calls = std::make_shared<int>(0)]()
            -> std::unique_ptr<Layer> {
          const bool sender_side = (*calls)++ == 0;
          if (sender_side) {
            GossipHooks hooks;
            hooks.on_view = [this, mi](std::uint16_t epoch,
                                       std::uint32_t digest) {
              note_member_echo(mi, epoch, digest);
            };
            hooks.on_ack = [this, mi](std::uint32_t acked) {
              note_member_ack(mi, acked);
            };
            // Every arrival feeds the plane's phi window; any restore (or
            // post-dead rejoin) comes back through its hooks — gated by
            // flap damping, not instant.
            hooks.on_heard = [this, mi](Vt now) {
              health_.note_heard(mi, now);
            };
            return std::make_unique<GroupGossipLayer>(gcfg, sender_out_,
                                                      std::move(hooks));
          }
          GossipHooks hooks;
          hooks.on_view = [this, mi](std::uint16_t epoch,
                                     std::uint32_t digest) {
            // The member echoes the newest view it has seen; regressions
            // are stale gossip and ignored.
            GossipOutbound& out = *member_outs_[mi];
            if (epoch < out.epoch) {
              ++stats_.stale_gossip;
              return;
            }
            out.epoch = epoch;
            out.digest = digest;
          };
          return std::make_unique<GroupGossipLayer>(gcfg, member_outs_[mi],
                                                    std::move(hooks));
        }));

    auto [se, me] = w.connect(sender, *members[i], c);
    sender_eps_.push_back(se);
    member_eps_.push_back(me);
    me->on_deliver([this, mi](std::span<const std::uint8_t> bytes) {
      on_member_deliver(mi, bytes);
    });
  }
  refresh_outbound();
}

health::HealthHooks McastGroup::health_hooks() {
  health::HealthHooks hooks;
  hooks.on_suspect = [this](health::PeerId p) {
    const MemberId m = static_cast<MemberId>(p);
    view_.suspect(m);
    refresh_outbound();
  };
  hooks.on_restore = [this](health::PeerId p) {
    const MemberId m = static_cast<MemberId>(p);
    const Member* mb = view_.find(m);
    if (mb != nullptr && mb->state == MemberState::kLeft) {
      // Confirmed dead earlier, alive now (a healed partition): rejoin.
      const std::uint8_t prio =
          m < opt_.priorities.size() ? opt_.priorities[m] : 1;
      view_.join(m, prio);
    } else {
      view_.restore(m);
    }
    refresh_outbound();
  };
  hooks.on_dead = [this](health::PeerId p) {
    // Confirmed dead — suspicion plus a failed indirect probe round. The
    // member leaves the view: it stops holding stability back and stops
    // receiving fanout clones until the health plane hears it again.
    view_.leave(static_cast<MemberId>(p));
    refresh_outbound();
  };
  hooks.request_probe = [this](health::PeerId p) {
    launch_probe_round(static_cast<MemberId>(p));
  };
  return hooks;
}

void McastGroup::launch_probe_round(MemberId target) {
  // Deterministic witness pick: the lowest-id members the view still
  // trusts, skipping the target itself. Suspected members may still be
  // fine witnesses (our path to them is what's suspect), so fall back to
  // them only when too few joined members exist.
  std::vector<MemberId> picks;
  constexpr std::size_t k = health::HealthPlane::kProbeK;
  for (int pass = 0; pass < 2 && picks.size() < k; ++pass) {
    for (const auto& [id, mb] : view_.members()) {
      if (picks.size() >= k) break;
      if (id == target || mb.state == MemberState::kLeft) continue;
      const bool joined = mb.state == MemberState::kJoined;
      if ((pass == 0) != joined) continue;
      picks.push_back(id);
    }
  }
  for (MemberId w : picks) {
    if (Endpoint* ep = ensure_probe_link(w, target)) {
      const std::uint8_t ping[1] = {0x50};  // 'P'
      ep->send(ping);
    }
  }
}

Endpoint* McastGroup::ensure_probe_link(MemberId witness, MemberId target) {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(witness) << 16) | target;
  if (auto it = probe_links_.find(key); it != probe_links_.end()) {
    return it->second;
  }
  if (witness >= member_nodes_.size() || target >= member_nodes_.size()) {
    return nullptr;
  }
  ConnOptions c = opt_.conn;
  c.use_pa = true;
  c.engine.cookie_preagreed = true;
  auto [we, te] =
      w_->connect(*member_nodes_[witness], *member_nodes_[target], c);
  // The target echoes whatever reaches it; the echo arriving back at the
  // witness is the probe ack — proof the target is alive even when the
  // coordinator's own path to it is down (asymmetric failure).
  te->on_deliver([te](std::span<const std::uint8_t> bytes) {
    te->send(bytes);
  });
  we->on_deliver([this, target, we](std::span<const std::uint8_t>) {
    health_.note_probe_ack(target, we->now());
  });
  probe_links_.emplace(key, we);
  return we;
}

GroupView::MergeReport McastGroup::merge_view(
    const GroupView::ViewSnapshot& other) {
  GroupView::MergeReport r = view_.merge(other);
  const Vt now = w_->now();
  for (MemberId m : r.reprobe) {
    // Stale suspicions must not stick: re-judge every suspect in the
    // merged view with a fresh probe round instead of trusting either
    // clique's partition-era verdict. mark_suspect moves a plane-alive
    // peer into kSuspect so its very next beacon restores it (firing
    // on_restore and clearing the adopted view suspicion); without it a
    // view-suspect/plane-alive member would stay suspect forever.
    health_.track(m);
    health_.mark_suspect(m, now);
    launch_probe_round(m);
  }
  refresh_outbound();
  return r;
}

std::uint32_t McastGroup::mcast(std::span<const std::uint8_t> payload) {
  const std::uint32_t seq = ++last_seq_;
  // One application-boundary copy builds the group frame; from here on the
  // chain is shared — clone() per member bumps refcounts, no byte copies.
  std::vector<std::uint8_t> buf(kGroupHdr + payload.size());
  store_be32(buf.data(), seq);
  store_be16(buf.data() + 4, 0);  // src: the coordinator
  store_be16(buf.data() + 6, 0);  // flags
  if (!payload.empty()) {
    std::memcpy(buf.data() + kGroupHdr, payload.data(), payload.size());
  }
  Message master = Message::with_payload(std::move(buf));

  // The coordinator trivially holds its own send: advertising head as its
  // ack lets members see how far behind they are.
  sender_out_->has_ack = true;
  sender_out_->acked = seq;
  sent_at_[seq] = w_->now();

  ++stats_.mcasts;
  for (std::size_t i = 0; i < sender_eps_.size(); ++i) {
    const Member* mb = view_.find(static_cast<MemberId>(i));
    if (mb != nullptr && mb->state == MemberState::kLeft) {
      ++stats_.skipped_left;
      continue;
    }
    ++stats_.fanout_sends;
    sender_eps_[i]->send_message(master.clone());
  }
  prune_sent_log();
  return seq;
}

void McastGroup::on_deliver(MemberId m, DeliverFn fn) {
  user_fns_.at(m) = std::move(fn);
}

void McastGroup::poll() {
  // Cross-prime the detector from the adaptive RTO: while a member's
  // gossip window is still thin, judge it against the link's measured
  // srtt + 4*rttvar instead of the generic default (real samples win as
  // soon as they exist — see PhiDetector::prime).
  for (std::size_t i = 0; i < sender_eps_.size(); ++i) {
    Stack& st = sender_eps_[i]->engine().stack();
    for (std::size_t j = 0; j < st.size(); ++j) {
      if (auto* wl = dynamic_cast<WindowLayer*>(&st.layer(j))) {
        if (wl->srtt() > 0) {
          health_.prime(i, wl->srtt() + 4 * wl->rttvar());
        }
        break;
      }
    }
  }
  // State transitions land through the hooks (which refresh outbound
  // gossip themselves).
  health_.tick(w_->now());
}

void McastGroup::leave(MemberId m) {
  health_.forget(m);
  view_.leave(m);
  refresh_outbound();
}

std::uint32_t McastGroup::stability_lag() const {
  const std::optional<std::uint32_t> s = view_.stability();
  return s ? last_seq_ - *s : last_seq_;
}

GroupGossipLayer* McastGroup::sender_gossip(MemberId m) {
  return find_gossip(sender_eps_.at(m)->engine().stack());
}

GroupGossipLayer* McastGroup::member_gossip(MemberId m) {
  return find_gossip(member_eps_.at(m)->engine().stack());
}

std::uint64_t McastGroup::sender_drops(DropReason r) const {
  std::uint64_t t = 0;
  for (Endpoint* e : sender_eps_) t += e->engine().stats().drops[r];
  return t;
}

std::uint64_t McastGroup::member_drops(DropReason r) const {
  std::uint64_t t = 0;
  for (Endpoint* e : member_eps_) t += e->engine().stats().drops[r];
  return t;
}

void McastGroup::refresh_outbound() {
  sender_out_->epoch = view_.epoch();
  sender_out_->digest = view_.digest();
}

void McastGroup::note_member_echo(MemberId m, std::uint16_t epoch,
                                  std::uint32_t digest) {
  const Member* mb = view_.find(m);
  if (mb != nullptr && epoch < mb->epoch_echoed) {
    ++stats_.stale_gossip;
    return;
  }
  // An echo we never issued (epoch ahead, or our epoch under a different
  // digest) is the signature of a healed partition's other clique: the
  // owner should fetch its snapshot and merge_view() it.
  if (view_.divergent(epoch, digest)) ++stats_.divergences;
  view_.note_echo(m, epoch, digest);
}

void McastGroup::note_member_ack(MemberId m, std::uint32_t acked) {
  view_.note_ack(m, acked);
  prune_sent_log();
}

void McastGroup::on_member_deliver(MemberId m,
                                   std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kGroupHdr) return;  // not a group frame; ignore
  const std::uint32_t seq = load_be32(bytes.data());
  const MemberId src = load_be16(bytes.data() + 4);
  const std::span<const std::uint8_t> payload = bytes.subspan(kGroupHdr);

  // Per-member delivery cursor: the link is FIFO-reliable, so the latest
  // seq is the highest contiguously delivered one.
  GossipOutbound& out = *member_outs_[m];
  if (!out.has_ack || seq > out.acked) {
    out.has_ack = true;
    out.acked = seq;
  }

  ++stats_.delivered;
  if (const auto it = sent_at_.find(seq); it != sent_at_.end()) {
    const Vt lat = member_eps_[m]->now() - it->second;
    const std::uint64_t ns = lat > 0 ? static_cast<std::uint64_t>(lat) : 0;
    member_hists_[m].record(ns);
  }
  if (user_fns_[m]) user_fns_[m](src, seq, payload);
}

void McastGroup::prune_sent_log() {
  // Group-stable messages need no more latency samples: every joined
  // member has delivered them. The history bound catches the no-stability
  // case (a member that never acks).
  if (const std::optional<std::uint32_t> s = view_.stability()) {
    sent_at_.erase(sent_at_.begin(), sent_at_.upper_bound(*s));
  }
  while (sent_at_.size() > kSendHistory) sent_at_.erase(sent_at_.begin());
}

obs::LatencyHistogram McastGroup::deliver_hist() const {
  obs::LatencyHistogram all;
  for (const obs::LatencyHistogram& h : member_hists_) all.merge(h);
  return all;
}

void McastGroup::bind_stats(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  obs::bind_stats(reg, view_.stats(), prefix);
  obs::bind_stats(reg, stats_, prefix);
  if (prefix == Stats::kMetricPrefix) {
    health_.bind_stats(reg);
  } else {
    health_.bind_stats(reg, prefix + "_health");
  }
  reg.gauge_fn(prefix + "_members", "joined members", "",
               [this] { return static_cast<double>(view_.joined_count()); });
  reg.gauge_fn(prefix + "_view_epoch", "current view epoch", "",
               [this] { return static_cast<double>(view_.epoch()); });
  reg.gauge_fn(prefix + "_stability_lag",
               "last multicast seq minus the group-stable (min-acked) seq", "",
               [this] { return static_cast<double>(stability_lag()); });
  reg.gauge_fn(prefix + "_fanout_amplification_x1000",
               "engine sends per logical multicast, times 1000", "", [this] {
                 return stats_.mcasts == 0
                            ? 0.0
                            : static_cast<double>(stats_.fanout_sends * 1000 /
                                                  stats_.mcasts);
               });
}

}  // namespace pa::group
