// McastGroup: one-to-many multicast over the Protocol Accelerator.
//
// One logical mcast() crosses the application boundary once — the payload
// is adopted into a single chunk-chained Message — and reaches N members by
// cloning that chain per member connection: each clone is a refcount bump
// (buf/message.h), so byte copies per logical send are O(1) in the group
// size. Every member link is an ordinary PA connection running the
// canonical stack plus a GroupGossipLayer, which means each destination
// keeps its own packing train, header prediction and retransmission
// machinery — the paper's masking techniques amortize the fanout exactly
// as they amortize a point-to-point stream.
//
// Membership (an epoch-versioned GroupView, src/group/membership.h) and
// stability (min delivered seqno over joined members) are maintained purely
// from gossip piggybacked on this traffic: members echo the view
// epoch+digest they last saw and advertise their delivery cursor in the
// gossip header class; idle links fall back to beacons. The coordinator
// never sends a dedicated membership round.
//
// Liveness has one authority: the group's HealthPlane (src/health/plane.h).
// Every arrival from a member feeds it, poll() ticks it, and its hooks
// apply suspect / dead / restore to the view; its witness probes ride
// lazily built member<->member PA connections.
//
// For members colocated on one node, Router::register_group() offers a
// shard fanout: one frame on the wire is delivered to every colocated
// member engine by WireFrame copy (refcount bumps). That path is exercised
// by tests/group_chaos_test.cpp and bench_fanout directly; McastGroup
// itself keeps one connection per member so every member has full
// per-destination reliability.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "group/gossip_layer.h"
#include "group/membership.h"
#include "health/plane.h"
#include "horus/world.h"
#include "obs/metrics.h"
#include "util/stat_fields.h"

namespace pa::group {

struct McastOptions {
  /// Base per-link options. use_pa and cookie_preagreed are forced on (the
  /// fanout path is cookie-routed); everything else is honoured.
  ConnOptions conn{};
  /// Gossip beacon idle interval for both sides; 0 disables beacons (then
  /// stability only advances, and members are only heard, while traffic
  /// flows: poll() on a long-idle group suspects them). NOTE: beacons re-arm
  /// forever — run with a bounded horizon, or disable.
  VtDur beacon_interval = vt_ms(25);
  /// Per-member priorities (default 1). Priority 0 = low: that member's
  /// beacons are shed at Saturated (ShedClass::kLiveness); others survive
  /// until Critical (kGossipAck).
  std::vector<std::uint8_t> priorities;
};

// McastGroup::Stats, one row per field (util/stat_fields.h). Bound with
// the view's transitions under the one `group` prefix by
// McastGroup::bind_stats.
#define PA_MCAST_STATS(X)                                                      \
  X(std::uint64_t, mcasts, "mcasts_total", "",                                 \
    "logical group multicast sends")                                           \
  X(std::uint64_t, fanout_sends, "fanout_sends_total", "",                     \
    "per-member engine sends those multicasts produced")                       \
  X(std::uint64_t, skipped_left, "skipped_left_total", "",                     \
    "per-member sends skipped because the member had left")                    \
  X(std::uint64_t, delivered, "delivers_total", "",                            \
    "group messages delivered to member applications")                         \
  X(std::uint64_t, stale_gossip, "stale_gossip_total", "",                     \
    "gossip ignored as older than already-held state")                         \
  X(std::uint64_t, divergences, "divergences_total", "",                       \
    "member echoes of a view this group never gossiped")

class McastGroup {
 public:
  using DeliverFn = std::function<void(
      MemberId src, std::uint32_t seq, std::span<const std::uint8_t>)>;

  /// Build the group: one PA connection sender->member per member node.
  /// Member ids are 0..members.size()-1 in the given order; all start
  /// joined (the view's epoch reflects the joins).
  McastGroup(World& w, Node& sender, const std::vector<Node*>& members,
             McastOptions opt = {});

  /// One logical multicast. Returns the group seqno (first send is 1).
  std::uint32_t mcast(std::span<const std::uint8_t> payload);

  /// Application delivery callback for one member (src is the group-header
  /// origin — always the coordinator here; seq is the group seqno).
  void on_deliver(MemberId m, DeliverFn fn);

  /// Health-plane tick (transitions refresh outbound gossip). Call periodically
  /// (tests/benches drive it between run_for slices).
  void poll();

  /// Drop a member for good: it stops receiving mcasts, stops holding
  /// stability back, and the health plane forgets it (so hearing it again
  /// never rejoins it).
  void leave(MemberId m);

  GroupView& view() { return view_; }
  const GroupView& view() const { return view_; }
  /// The group's liveness authority: every suspicion, death verdict and
  /// restore comes from here.
  health::HealthPlane& health() { return health_; }

  /// Partition healing: fold a diverged clique's view into ours (max-epoch
  /// wins, see GroupView::merge), re-arm the health plane for every member
  /// the merged view still suspects, and gossip the superseding epoch out.
  GroupView::MergeReport merge_view(const GroupView::ViewSnapshot& other);
  std::uint32_t last_seq() const { return last_seq_; }
  std::optional<std::uint32_t> stability() const { return view_.stability(); }
  /// last_seq - stable seq (last_seq when nothing is stable yet).
  std::uint32_t stability_lag() const;

  Endpoint* sender_endpoint(MemberId m) { return sender_eps_.at(m); }
  Endpoint* member_endpoint(MemberId m) { return member_eps_.at(m); }
  GroupGossipLayer* sender_gossip(MemberId m);
  GroupGossipLayer* member_gossip(MemberId m);
  const obs::LatencyHistogram& member_hist(MemberId m) const {
    return member_hists_.at(m);
  }
  /// Send-to-delivery latency across every member: the members'
  /// histograms merged (bucket counts add exactly).
  obs::LatencyHistogram deliver_hist() const;

  /// Shed accounting across the fanout: per-reason drops summed over all
  /// sender-side (resp. member-side) engines of this group.
  std::uint64_t sender_drops(DropReason r) const;
  std::uint64_t member_drops(DropReason r) const;

  struct Stats {
    static constexpr const char* kMetricPrefix = "group";
    PA_STAT_FIELDS(PA_MCAST_STATS)
  };
  const Stats& stats() const { return stats_; }

  /// Bind this group's metrics read-through into `reg`: the view's
  /// transitions and this group's counters (`group_*`), its health plane
  /// (`health_*`), and gauges derived from live state at collection time.
  /// A second group in the same registry needs its own `prefix`: its
  /// metrics then read `<prefix>_*` and its plane's `<prefix>_health_*`
  /// (a name binds once; a clash throws). The group must outlive the
  /// registry. Per-link layer counters (the gossip layer included) bind per
  /// endpoint, via obs::bind_stack_stats.
  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix = Stats::kMetricPrefix) const;

 private:
  void refresh_outbound();
  void note_member_echo(MemberId m, std::uint16_t epoch,
                        std::uint32_t digest);
  void note_member_ack(MemberId m, std::uint32_t acked);
  void on_member_deliver(MemberId m, std::span<const std::uint8_t> bytes);
  void prune_sent_log();
  health::HealthHooks health_hooks();
  void launch_probe_round(MemberId target);
  Endpoint* ensure_probe_link(MemberId witness, MemberId target);

  World* w_;
  McastOptions opt_;
  GroupView view_{1};  // one group per McastGroup: its id is always 1
  Node* sender_node_ = nullptr;
  std::vector<Node*> member_nodes_;

  std::vector<Endpoint*> sender_eps_;
  std::vector<Endpoint*> member_eps_;
  std::shared_ptr<GossipOutbound> sender_out_;
  std::vector<std::shared_ptr<GossipOutbound>> member_outs_;
  std::deque<obs::LatencyHistogram> member_hists_;
  std::vector<DeliverFn> user_fns_;

  std::uint32_t last_seq_ = 0;
  std::map<std::uint32_t, Vt> sent_at_;
  Stats stats_;

  // --- health plane ------------------------------------------------------
  health::HealthPlane health_;
  /// Lazily-built witness probe links, keyed (witness << 16) | target.
  /// Each is an ordinary PA connection between two member nodes: the
  /// witness pings, the target echoes, the ack proves the target is alive
  /// even when the coordinator's own path to it is down.
  std::map<std::uint32_t, Endpoint*> probe_links_;
};

}  // namespace pa::group
