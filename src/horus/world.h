// The simulation world: nodes, network, connections.
//
// World is the top-level harness that replaces the paper's physical testbed
// (two SPARC-20s over ATM with U-Net). It owns the event queue, the
// simulated network, per-node CPUs / routers / GC models, and the
// connections (pairs of endpoints running either the PA or the classic
// engine over a configurable stack).
//
// Typical use (see examples/quickstart.cpp):
//
//   World w({});
//   auto& a = w.add_node("sender");
//   auto& b = w.add_node("receiver");
//   auto [src, dst] = w.connect(a, b, ConnOptions{});
//   dst->on_deliver([&](auto payload) { ... });
//   src->send(bytes);
//   w.run();
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "classic/engine.h"
#include "horus/endpoint.h"
#include "pa/accelerator.h"
#include "pa/router.h"
#include "sim/event_queue.h"
#include "sim/gc_model.h"
#include "sim/network.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace pa {

struct WorldConfig {
  std::uint64_t seed = 42;
  LinkParams link{};                            // paper: U-Net over ATM
  GcPolicy gc_policy = GcPolicy::kDisabled;     // per-node GC model
  std::uint32_t gc_every_n = 32;
  bool trace = false;
};

class Node {
 public:
  /// A node with `n_cpus` processors. Connections are assigned to CPUs
  /// round-robin (paper §6: "The protocol stacks for different connections
  /// may be divided among the processors. Since the protocol stacks are
  /// independent, there will be no synchronization necessary."). Each CPU
  /// gets its own GC model (one O'Caml process per processor).
  Node(std::string name, NodeId id, EventQueue& q, GcPolicy gc_policy,
       std::uint64_t gc_seed, std::size_t n_cpus = 1)
      : name_(std::move(name)), id_(id) {
    for (std::size_t i = 0; i < n_cpus; ++i) {
      cpus_.emplace_back(q);
      gcs_.emplace_back(gc_policy, gc_seed ^ (i * 0x9e3779b9ull));
    }
  }

  const std::string& name() const { return name_; }
  NodeId id() const { return id_; }
  std::size_t n_cpus() const { return cpus_.size(); }
  SimCpu& cpu(std::size_t i = 0) { return cpus_.at(i); }
  GcModel& gc(std::size_t i = 0) { return gcs_.at(i); }
  Router& router() { return router_; }

  /// Round-robin CPU assignment for new connections.
  std::size_t next_cpu() { return rr_++ % cpus_.size(); }

  /// Which CPU runs a given engine's work.
  void assign(Engine* e, std::size_t cpu_index) { cpu_of_[e] = cpu_index; }
  std::size_t cpu_of(Engine* e) const {
    auto it = cpu_of_.find(e);
    return it == cpu_of_.end() ? 0 : it->second;
  }

 private:
  std::string name_;
  NodeId id_;
  std::deque<SimCpu> cpus_;
  std::deque<GcModel> gcs_;
  Router router_;
  std::map<Engine*, std::size_t> cpu_of_;
  std::size_t rr_ = 0;
};

/// Per-connection options: one engine config for both sides, plus what is
/// per side. With use_pa the PA runs `engine`; without it the classic engine
/// runs `engine.stack` under `engine.costs` and the PA knobs are unused.
/// World::connect assigns, per side, and overwrites whatever `engine` holds
/// there: self_endian (a_endian or b_endian), cookie_seed, governor
/// (a_governor or b_governor), the bottom layer's addresses and group, and
/// the relay layer's hop ids unless both are set.
struct ConnOptions {
  bool use_pa = true;
  PaConfig engine{};
  // Emulated byte orders (heterogeneity tests):
  Endian a_endian = host_endian();
  Endian b_endian = host_endian();
  // Overload governors (src/resil/), one per side since overload is a node
  // property, not a link property. Non-owning; may be null (no governing).
  // The side's engine obeys the governor's shed ladder and its node's
  // router rejects fresh conn-idents at Saturated and above.
  resil::OverloadGovernor* a_governor = nullptr;
  resil::OverloadGovernor* b_governor = nullptr;
};

class World {
 public:
  explicit World(WorldConfig cfg = {});

  Node& add_node(std::string name, std::size_t n_cpus = 1);

  /// Create a bidirectional connection between nodes a and b.
  /// Returns the two endpoints (a-side first).
  std::pair<Endpoint*, Endpoint*> connect(Node& a, Node& b,
                                          const ConnOptions& opt);

  EventQueue& queue() { return queue_; }
  SimNetwork& network() { return net_; }
  TraceRecorder& tracer() { return tracer_; }
  Rng& rng() { return rng_; }
  Vt now() const { return queue_.now(); }

  /// Drain all events (bounded by max_events as a runaway stop).
  void run(std::uint64_t max_events = 50'000'000) { queue_.run(max_events); }
  void run_until(Vt t) { queue_.run_until(t); }
  void run_for(VtDur d) { queue_.run_until(queue_.now() + d); }

  // --- chaos helpers ------------------------------------------------------
  /// Partition a pair of nodes: both link directions silently blackhole.
  void partition(Node& a, Node& b) {
    net_.set_paused(a.id(), b.id(), true);
    net_.set_paused(b.id(), a.id(), true);
  }
  void heal(Node& a, Node& b) {
    net_.set_paused(a.id(), b.id(), false);
    net_.set_paused(b.id(), a.id(), false);
  }
  /// Named set partition: cut the boundary between `members` and everyone
  /// else in the given direction(s). Re-installing a name replaces it;
  /// heal_set removes it. Traffic inside the set (and outside it) flows.
  void partition_set(const std::string& name,
                     const std::vector<Node*>& members,
                     PartitionMode mode = PartitionMode::kBoth) {
    std::vector<NodeId> ids;
    ids.reserve(members.size());
    for (Node* n : members) ids.push_back(n->id());
    net_.set_partition(name, std::move(ids), mode);
  }
  void heal_set(const std::string& name) { net_.clear_partition(name); }
  /// Crash+restart a node's process: its router forgets every learned
  /// cookie and each engine redraws its volatile identity (PA cookie).
  /// In-flight frames addressed to the node are unaffected — they arrive
  /// at the restarted router and must survive it.
  void restart_node(Node& n) {
    n.router().reset();
    for (Engine* e : n.router().engines()) e->on_restart();
  }

 private:
  Address next_address();

  WorldConfig cfg_;
  Rng rng_;
  EventQueue queue_;
  SimNetwork net_;
  TraceRecorder tracer_;
  std::deque<Node> nodes_;
  std::deque<std::unique_ptr<Endpoint>> endpoints_;
  std::uint64_t addr_counter_ = 0;
  std::uint64_t cookie_counter_ = 0;
  std::uint64_t hop_counter_ = 0;  // relay hop-id allocator (0 = unassigned)
};

}  // namespace pa
