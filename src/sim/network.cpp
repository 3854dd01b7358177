#include "sim/network.h"

#include <algorithm>
#include <cassert>

namespace pa {

const char* partition_mode_name(PartitionMode m) {
  switch (m) {
    case PartitionMode::kBoth:
      return "both";
    case PartitionMode::kTxOnly:
      return "tx-only";
    case PartitionMode::kRxOnly:
      return "rx-only";
  }
  return "?";
}

NodeId SimNetwork::add_node(std::string name, FrameHandler handler) {
  nodes_.push_back(Node{std::move(name), std::move(handler)});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void SimNetwork::set_handler(NodeId id, FrameHandler handler) {
  nodes_.at(id).handler = std::move(handler);
}

void SimNetwork::set_link(NodeId from, NodeId to, LinkParams params) {
  links_[{from, to}] = params;
}

const LinkParams& SimNetwork::link(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? default_link_ : it->second;
}

void SimNetwork::send(NodeId from, NodeId to, WireFrame frame, Vt depart) {
  assert(from < nodes_.size() && to < nodes_.size());
  const LinkParams& lp = link(from, to);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  if (tap_) {
    const std::vector<std::uint8_t> flat = frame.flatten();
    tap_(from, to, flat, depart);
  }

  if (frame.size() > lp.mtu) {
    ++stats_.frames_oversize;
    return;
  }

  // Per-link serialization FIFO: the NIC can put only one frame on the wire
  // at a time.
  LinkState& ls = link_state_[{from, to}];
  Vt tx_start = std::max(depart, ls.busy);
  VtDur tx_time =
      static_cast<VtDur>(static_cast<double>(frame.size()) * lp.ns_per_byte);
  ls.busy = tx_start + tx_time;

  if (paused_.count({from, to}) || partitioned(from, to)) {
    ++stats_.frames_blackholed;
    return;
  }
  const resil::FaultVerdict v =
      ls.faults.judge(lp.faults, *rng_, frame.size(), lp.propagation);
  if (v.drop) {
    ++(lp.faults.paused ? stats_.frames_blackholed : stats_.frames_lost);
    return;
  }
  stats_.frames_corrupted += v.corrupt;
  stats_.frames_truncated += v.truncate_to != 0;
  resil::mutate(v, frame);
  const Vt arrive = ls.busy + lp.propagation + v.delay;
  if (v.duplicate) {
    ++stats_.frames_duplicated;
    // Deep copy: both deliveries adopt their frame's chunks and may write
    // headers in place, so they must not alias each other.
    deliver(from, to, frame.deep_copy(), arrive + v.dup_delay);
  }
  deliver(from, to, std::move(frame), arrive);
}

void SimNetwork::set_partition(const std::string& name,
                               std::vector<NodeId> members,
                               PartitionMode mode) {
  Partition p;
  p.members.insert(members.begin(), members.end());
  p.mode = mode;
  partitions_[name] = std::move(p);
}

void SimNetwork::clear_partition(const std::string& name) {
  partitions_.erase(name);
}

bool SimNetwork::partitioned(NodeId from, NodeId to) const {
  for (const auto& [name, p] : partitions_) {
    const bool fi = p.members.count(from) != 0;
    const bool ti = p.members.count(to) != 0;
    if (fi == ti) continue;  // same side of this boundary
    switch (p.mode) {
      case PartitionMode::kBoth:
        return true;
      case PartitionMode::kTxOnly:
        if (fi) return true;  // a member transmitting out
        break;
      case PartitionMode::kRxOnly:
        if (ti) return true;  // a member receiving from outside
        break;
    }
  }
  return false;
}

void SimNetwork::deliver(NodeId from, NodeId to, WireFrame frame, Vt at) {
  // `at` can precede queue-now only if a caller passed a stale depart time;
  // clamp to preserve the event queue's monotonicity.
  Vt when = std::max(at, q_->now());
  q_->at(when, [this, from, to, frame = std::move(frame), when]() mutable {
    ++stats_.frames_delivered;
    nodes_[to].handler(from, std::move(frame), when);
  });
}

}  // namespace pa
