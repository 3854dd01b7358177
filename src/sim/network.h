// Simulated network (the U-Net/ATM substitute).
//
// Models point-to-point links with propagation delay, per-byte serialization
// (bandwidth), an MTU, fault injection (resil/fault_socket.h: loss,
// duplication, delay jitter, bit corruption, frame truncation, bursty
// Gilbert–Elliott loss) and link pause/partition. All faults draw from the
// one shared seeded Rng, so a fixed seed reproduces the exact same fault
// schedule. Defaults are calibrated to the paper's testbed: U-Net over a
// Fore 140 Mbit/s ATM gave ~35 µs one-way latency for small messages.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "buf/wire_frame.h"
#include "resil/fault_socket.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/stat_fields.h"
#include "util/types.h"

namespace pa {

using NodeId = std::uint32_t;

struct LinkParams {
  VtDur propagation = vt_ns(33'400);  // fixed one-way cost
  // Serialization: 140 Mbit/s = 17.5 MB/s => ~57.14 ns per byte.
  double ns_per_byte = 8000.0 / 140.0;
  std::size_t mtu = 9180;  // AAL5 default; oversize frames are dropped
  // Judged per frame after serialization; a duplicate lags its original
  // by up to one propagation delay.
  resil::FaultConfig faults;
};

/// How a named partition set cuts traffic crossing its boundary.
/// kTxOnly / kRxOnly model asymmetric failures (a half-dead NIC, a one-way
/// firewall rule): the set's members can still hear (resp. be heard), which
/// is exactly the case indirect probing exists for — the coordinator stops
/// hearing a member that is in fact alive.
enum class PartitionMode : std::uint8_t {
  kBoth,    // nothing crosses the boundary in either direction
  kTxOnly,  // members' transmissions to the outside are swallowed
  kRxOnly,  // members' receptions from the outside are swallowed
};

const char* partition_mode_name(PartitionMode m);

// SimNetwork::Stats, one row per field (util/stat_fields.h).
#define PA_NETWORK_STATS(X)                                                    \
  X(std::uint64_t, frames_sent, "frames_sent_total", "",                       \
    "frames entering the network")                                             \
  X(std::uint64_t, frames_delivered, "frames_delivered_total", "",             \
    "frames delivered")                                                        \
  X(std::uint64_t, frames_lost, "frames_lost_total", "",                       \
    "frames dropped by loss")                                                  \
  X(std::uint64_t, frames_duplicated, "frames_duplicated_total", "",           \
    "frames duplicated")                                                       \
  X(std::uint64_t, frames_oversize, "frames_oversize_total", "",               \
    "frames exceeding the link MTU")                                           \
  X(std::uint64_t, frames_corrupted, "frames_corrupted_total", "",             \
    "frames bit-flipped")                                                      \
  X(std::uint64_t, frames_truncated, "frames_truncated_total", "",             \
    "frames cut short")                                                        \
  X(std::uint64_t, frames_blackholed, "frames_blackholed_total", "",           \
    "frames swallowed by a paused link")                                       \
  X(std::uint64_t, bytes_sent, "bytes_sent_total", "bytes",                    \
    "payload bytes sent")

class SimNetwork {
 public:
  using FrameHandler =
      std::function<void(NodeId from, WireFrame frame, Vt at)>;

  struct Stats {
    static constexpr const char* kMetricPrefix = "sim_network";
    PA_STAT_FIELDS(PA_NETWORK_STATS)
  };

  SimNetwork(EventQueue& q, Rng& rng) : q_(&q), rng_(&rng) {}

  NodeId add_node(std::string name, FrameHandler handler);

  /// Replace a node's frame handler (used when the handler must capture
  /// state constructed after the node id is known).
  void set_handler(NodeId id, FrameHandler handler);

  /// Override parameters for the directed link from -> to.
  void set_link(NodeId from, NodeId to, LinkParams params);
  void set_default_link(LinkParams params) { default_link_ = params; }
  const LinkParams& link(NodeId from, NodeId to) const;

  /// Transmit a frame departing node `from` at time `depart` (callers pass
  /// their CPU's current instant). Applies serialization FIFO per directed
  /// link, then propagation, then fault injection. The frame rides the
  /// event queue as a gather list — the network never flattens it.
  void send(NodeId from, NodeId to, WireFrame frame, Vt depart);

  /// Flat-vector convenience for tests and tools: adopts the vector as a
  /// single-chunk frame (no copy).
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> frame,
            Vt depart) {
    send(from, to, WireFrame::adopt(std::move(frame)), depart);
  }

  /// Pause / unpause the directed link from -> to. A paused link silently
  /// swallows every frame (a blackhole, not an error): pausing both
  /// directions partitions the pair. Healing does not replay swallowed
  /// frames — recovery is the protocols' job.
  void set_paused(NodeId from, NodeId to, bool paused) {
    if (paused) {
      paused_.insert({from, to});
    } else {
      paused_.erase({from, to});
    }
  }
  bool paused(NodeId from, NodeId to) const {
    return paused_.count({from, to}) != 0;
  }

  // --- named partition sets ----------------------------------------------
  // First-class partitions: a named set of nodes whose boundary blackholes
  // crossing frames per the mode. Installing a name again replaces it
  // (tx-only can become both, the set can grow); clearing the name heals
  // it. Traffic between two members, or two non-members, is untouched, so
  // each clique keeps evolving its own view — the healing machinery in
  // src/group/membership.h is what reconciles them afterwards.

  void set_partition(const std::string& name, std::vector<NodeId> members,
                     PartitionMode mode = PartitionMode::kBoth);
  void clear_partition(const std::string& name);
  bool has_partition(const std::string& name) const {
    return partitions_.count(name) != 0;
  }
  std::size_t active_partitions() const { return partitions_.size(); }

  /// Would any active partition (not pause) swallow a from->to frame?
  bool partitioned(NodeId from, NodeId to) const;

  const Stats& stats() const { return stats_; }
  const std::string& node_name(NodeId id) const { return nodes_.at(id).name; }

  /// Observe every frame offered to the network (before fault injection) —
  /// a tcpdump-style tap for tests and the frame_inspector example. Taps
  /// see a flat copy: this is an observation boundary, the one place the
  /// gather list is deliberately flattened (counted in BufStats.flattens).
  using Tap = std::function<void(NodeId from, NodeId to,
                                 std::span<const std::uint8_t> frame,
                                 Vt depart)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  struct Node {
    std::string name;
    FrameHandler handler;
  };

  void deliver(NodeId from, NodeId to, WireFrame frame, Vt at);

  EventQueue* q_;
  Rng* rng_;
  std::vector<Node> nodes_;
  LinkParams default_link_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  struct LinkState {
    Vt busy = 0;  // serialization FIFO: the wire is taken until then
    resil::FaultState faults;
  };
  std::map<std::pair<NodeId, NodeId>, LinkState> link_state_;
  std::set<std::pair<NodeId, NodeId>> paused_;
  struct Partition {
    std::set<NodeId> members;
    PartitionMode mode;
  };
  std::map<std::string, Partition> partitions_;
  Tap tap_;
  Stats stats_;
};

}  // namespace pa
