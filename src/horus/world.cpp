#include "horus/world.h"

namespace pa {

World::World(WorldConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), net_(queue_, rng_) {
  net_.set_default_link(cfg_.link);
}

obs::OwnerNames World::span_owners() const {
  obs::OwnerNames names;
  for (const auto& ep : endpoints_) {
    names[ep->engine().obs_id()] = ep->node().name();
  }
  return names;
}

Node& World::add_node(std::string name, std::size_t n_cpus) {
  NodeId id = net_.add_node(name, nullptr);
  nodes_.emplace_back(std::move(name), id, queue_, cfg_.gc_policy,
                      cfg_.seed ^ (0x9e37ull * (id + 1)), n_cpus);
  Node* node = &nodes_.back();
  for (std::size_t i = 0; i < n_cpus; ++i) {
    node->gc(i).set_every_n(cfg_.gc_every_n);
  }
  // Frames arriving at this node are routed to their connection, then wait
  // for the CPU that owns that connection's stack.
  net_.set_handler(id, [node](NodeId, WireFrame frame, Vt at) {
    // Group-cookie fanout first: one frame, one WireFrame copy per
    // colocated member engine (refcount bumps), each on its own CPU.
    if (const std::vector<Engine*>* members =
            node->router().group_route(frame)) {
      for (std::size_t i = 0; i < members->size(); ++i) {
        Engine* e = (*members)[i];
        WireFrame copy = i + 1 == members->size() ? std::move(frame) : frame;
        node->cpu(node->cpu_of(e))
            .post_at(at, [e, f = std::move(copy), at]() mutable {
              e->on_frame(std::move(f), at);
            });
      }
      return;
    }
    Engine* e = node->router().route(frame, at);
    if (e == nullptr) return;
    node->cpu(node->cpu_of(e))
        .post_at(at, [e, frame = std::move(frame), at]() mutable {
          e->on_frame(std::move(frame), at);
        });
  });
  return *node;
}

Address World::next_address() {
  Address a;
  std::uint64_t base = ++addr_counter_;
  for (std::size_t i = 0; i < 4; ++i) {
    a.words[i] = rng_.next() ^ (base << (8 * i));
  }
  return a;
}

std::pair<Endpoint*, Endpoint*> World::connect(Node& a, Node& b,
                                               const ConnOptions& opt) {
  a.router().set_kind(opt.use_pa ? Router::Kind::kPa : Router::Kind::kClassic);
  b.router().set_kind(opt.use_pa ? Router::Kind::kPa : Router::Kind::kClassic);

  Address addr_a = next_address();
  Address addr_b = next_address();
  std::uint64_t group = rng_.next();

  // Relay hop ids are connection-scoped: each side gets a distinct non-zero
  // id so a forwarding node can route on the dst-hop header field. Explicit
  // ids in the options win; 0/0 means "assign for me".
  const auto hop_base = static_cast<std::uint16_t>(2 * hop_counter_++);

  auto make_side = [&](Node& self, Node& peer, const Address& local,
                       const Address& remote, Endian self_endian,
                       Endian peer_endian, std::uint16_t local_hop,
                       std::uint16_t peer_hop,
                       resil::OverloadGovernor* governor) -> Endpoint* {
    const std::size_t cpu_index = self.next_cpu();
    auto ep = std::make_unique<Endpoint>(self, net_, peer.id(), cpu_index);
    // Addressing is the World's to assign: patch the spec's bottom (and
    // relay) configs before the engine builds the layers.
    PaConfig pc = opt.engine;
    if (LayerSpec* b = pc.stack.spec.find(LayerSpec::Type::kBottom)) {
      b->bottom.local = local;
      b->bottom.remote = remote;
      b->bottom.group = group;
    }
    if (LayerSpec* r = pc.stack.spec.find(LayerSpec::Type::kRelay)) {
      if (r->relay.local_hop == 0 && r->relay.peer_hop == 0) {
        r->relay.local_hop = local_hop;
        r->relay.peer_hop = peer_hop;
      }
    }
    std::unique_ptr<Engine> engine;
    if (opt.use_pa) {
      pc.self_endian = self_endian;
      pc.cookie_seed = cfg_.seed ^ (++cookie_counter_ * 0x632be59bd9b4e019ull);
      pc.governor = governor;
      if (governor) self.router().set_governor(governor);
      engine = std::make_unique<PaEngine>(std::move(pc), ep->env());
    } else {
      ClassicConfig cc;
      cc.stack = std::move(pc.stack);
      cc.costs = pc.costs;
      cc.self_endian = self_endian;
      cc.peer_endian = peer_endian;
      engine = std::make_unique<ClassicEngine>(std::move(cc), ep->env());
    }
    ep->attach_engine(std::move(engine));
    self.router().add(&ep->engine());
    self.assign(&ep->engine(), cpu_index);
    endpoints_.push_back(std::move(ep));
    return endpoints_.back().get();
  };

  Endpoint* ea = make_side(a, b, addr_a, addr_b, opt.a_endian, opt.b_endian,
                           static_cast<std::uint16_t>(hop_base + 1),
                           static_cast<std::uint16_t>(hop_base + 2),
                           opt.a_governor);
  Endpoint* eb = make_side(b, a, addr_b, addr_a, opt.b_endian, opt.a_endian,
                           static_cast<std::uint16_t>(hop_base + 2),
                           static_cast<std::uint16_t>(hop_base + 1),
                           opt.b_governor);

  if (opt.use_pa && opt.engine.cookie_preagreed) {
    // Out-of-band cookie agreement (paper §2.2's suggested improvement).
    b.router().register_cookie(ea->pa()->out_cookie(), &eb->engine());
    a.router().register_cookie(eb->pa()->out_cookie(), &ea->engine());
  }
  return {ea, eb};
}

}  // namespace pa
