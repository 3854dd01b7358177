// relay: two peers talk *through* a forwarding node that can read nothing
// but a hop id.
//
// The peers compose  seq / window / relay / crypt / bottom : hop-id header
// fields sit below the crypt layer, so they stay cleartext on an otherwise
// sealed frame — an onion router's circuit id. The forwarder in the middle
// never instantiates the peers' stack and holds no keys; it constructs a
// RelayForwarder from the *same StackSpec* the endpoints composed, which
// derives where the dst-hop field lands on the wire (the derived-artifacts
// story: recompose the stack and the forwarder re-derives, nothing is
// pinned to byte offsets). Forwarding is zero-copy: the received WireFrame
// is handed straight back to sendmmsg on the far socket.
#include <cstdio>
#include <vector>

#include "horus/relay.h"
#include "layers/crypt_layer.h"
#include "net/real_endpoint.h"

using namespace pa;

int main() {
  RealLoop loop;

  // The forwarder: two plain UDP sockets, no engine, no stack, no keys.
  const int fa = loop.open_udp();  // faces A
  const int fb = loop.open_udp();  // faces B

  RealEndpoint a(loop), b(loop);
  a.connect_to(loop.port(fa));
  b.connect_to(loop.port(fb));
  loop.set_peer(fa, a.local_port());
  loop.set_peer(fb, b.local_port());

  PaConfig base;
  base.costs = CostModel::zero();
  base.stack.spec = StackSpec{}
                        .add(LayerSpec::frag_layer(FragConfig{8192}))
                        .add(LayerSpec::seq_layer())
                        .add(LayerSpec::window_layer(WindowConfig{}))
                        .add(LayerSpec::crypt_layer())
                        .add(LayerSpec::relay_layer())
                        .add(LayerSpec::bottom_layer(BottomConfig{}));
  PaConfig ca = base;
  ca.cookie_seed = 0xaaaa;
  ca.stack.spec.find(LayerSpec::Type::kRelay)->relay = {/*local_hop=*/1,
                                                         /*peer_hop=*/2};
  PaConfig cb = base;
  cb.cookie_seed = 0xbbbb;
  cb.stack.spec.find(LayerSpec::Type::kRelay)->relay = {/*local_hop=*/2,
                                                         /*peer_hop=*/1};
  a.make_pa(ca, Address{{1, 2, 3, 4}}, Address{{5, 6, 7, 8}});
  b.make_pa(cb, Address{{5, 6, 7, 8}}, Address{{1, 2, 3, 4}});

  // Wire geometry derived from the composition, not hand-pinned. Hop
  // values in the spec don't matter for layout — only the layer list does.
  RelayForwarder fwd(base.stack.spec);
  std::uint64_t fwd_to_b = 0, fwd_to_a = 0, refused = 0;
  loop.on_frame(fa, [&](WireFrame f, Vt) {
    const auto dst = fwd.peek_dst_hop(f.first());
    if (dst && *dst == 2) {
      ++fwd_to_b;
      loop.sendv(fb, f);  // zero-copy: slices go straight to the far socket
    } else {
      ++refused;
    }
  });
  loop.on_frame(fb, [&](WireFrame f, Vt) {
    const auto dst = fwd.peek_dst_hop(f.first());
    if (dst && *dst == 1) {
      ++fwd_to_a;
      loop.sendv(fa, f);
    } else {
      ++refused;
    }
  });

  constexpr int kRounds = 1000;
  int done = 0;
  std::vector<std::uint8_t> ping(32, 0x42);
  b.on_deliver([&](std::span<const std::uint8_t> p) { b.send(p); });
  a.on_deliver([&](std::span<const std::uint8_t>) {
    if (++done < kRounds) a.send(ping);
  });

  a.send(ping);
  if (!loop.run_until([&] { return done >= kRounds; }, vt_s(30))) {
    std::fprintf(stderr, "timed out after %d/%d rounds\n", done, kRounds);
    return 1;
  }

  const EngineStats& sa = a.engine().stats();
  const auto* rl = dynamic_cast<const RelayLayer*>(
      a.engine().stack().find(LayerKind::kRelay));
  std::printf("relayed ping-pong: %d round trips through a keyless "
              "forwarder\n", kRounds);
  std::printf("  forwarder: %llu frames hop 1->2, %llu frames hop 2->1, "
              "%llu refused\n",
              static_cast<unsigned long long>(fwd_to_b),
              static_cast<unsigned long long>(fwd_to_a),
              static_cast<unsigned long long>(refused));
  std::printf("  forwarder wire geometry: %zu conn-ident + %zu fixed "
              "header bytes (derived from the spec)\n",
              fwd.conn_ident_bytes(), fwd.fixed_header_bytes());
  std::printf("  A relay layer: %llu stamped, %llu accepted, %llu "
              "misrouted\n",
              static_cast<unsigned long long>(rl->stats().stamped),
              static_cast<unsigned long long>(rl->stats().accepted),
              static_cast<unsigned long long>(rl->stats().misrouted));
  std::printf("  A: %llu/%llu sends fast, %llu/%llu deliveries predicted "
              "(hop fields are constants — the easiest prediction)\n",
              static_cast<unsigned long long>(sa.fast_sends),
              static_cast<unsigned long long>(sa.fast_sends + sa.slow_sends),
              static_cast<unsigned long long>(sa.fast_delivers),
              static_cast<unsigned long long>(sa.frames_in));

  const bool ok = done >= kRounds && fwd_to_b >= static_cast<unsigned>(kRounds) &&
                  fwd_to_a >= static_cast<unsigned>(kRounds) && refused == 0 &&
                  rl->stats().misrouted == 0;
  std::printf("RESULT: %s\n",
              ok ? "forwarded blind, delivered whole" : "UNEXPECTED");
  return ok ? 0 : 1;
}
