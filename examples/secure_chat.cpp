// secure_chat: an AEAD-encrypted, compressed chat over real UDP sockets,
// with a checksum-fixing man-in-the-middle.
//
// The composable-stack demo on a live transport: the two peers run
//   comp / seq / window / crypt / bottom
// — compression above the reliability protocol (compress once, not per
// retransmit), encryption below it (the window stores and re-ships
// ciphertext verbatim). Both extra layers ride the same prediction
// machinery as the 1996 four-layer stack: the crypt nonce is a counter,
// exactly as predictable as a sequence number, so steady-state chat stays
// on the PA fast paths even though every frame is sealed and inflated.
//
// The adversary is the point. A random bit flip dies at the wire checksum
// — but the checksum is an integrity check, not a MAC: anyone on the path
// can recompute it. So Mallory sits between the peers as a forwarder,
// flips a ciphertext bit in some of Alice's frames, *fixes the checksum*
// (deriving the field's wire position from the same StackSpec the peers
// composed, exactly like horus/relay.h derives hop fields), and sends the
// frame on. It sails through Bob's receive packet filter and dies at the
// AEAD tag — the only line of defense that needs the key — and the window
// layer repairs the hole. The transcript must come out intact anyway.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "horus/stack.h"
#include "layers/comp_layer.h"
#include "layers/crypt_layer.h"
#include "net/real_endpoint.h"
#include "pa/packing.h"
#include "pa/preamble.h"
#include "util/checksum.h"

using namespace pa;

namespace {

// Chat lines are verbose and repetitive — like real chat protocols, they
// compress well. ~300 bytes each so the comp layer has something to chew.
std::vector<std::uint8_t> line(int i) {
  std::string s = "[alice #" + std::to_string(i) + "] ";
  while (s.size() < 300)
    s += "the quick brown fox jumps over the lazy dog and ";
  return {s.begin(), s.end()};
}

// Mallory: tampers with frames in flight and forges a valid checksum. She
// holds no keys; everything she knows is derived from the public stack
// composition (the same way a relay forwarder derives hop fields).
class Mallory {
 public:
  explicit Mallory(const StackSpec& spec) {
    Stack stack(spec);
    (void)register_packing_fields(stack.registry());
    stack.init();
    const LayoutRegistry& reg = stack.registry();
    for (std::uint16_t i = 0; i < reg.size(); ++i) {
      if (reg.spec(FieldHandle{i}).name == "checksum") f_cksum_ = {i};
    }
    layout_ = reg.compile(LayoutMode::kCompact);
    ci_ = layout_.class_bytes(FieldClass::kConnId);
    proto_ = layout_.class_bytes(FieldClass::kProtoSpec);
    fixed_hdr_ = proto_ + layout_.class_bytes(FieldClass::kMsgSpec) +
                 layout_.class_bytes(FieldClass::kGossip) +
                 layout_.class_bytes(FieldClass::kPacking);
  }

  /// Flip one ciphertext bit, then recompute the wire checksum so the
  /// frame passes the receive packet filter. The checksum is the wide
  /// digest — masked header bits of every region, then the payload — and
  /// Mallory reproduces it from the compiled layout alone: it is an
  /// integrity check, not a MAC. False if the frame has no payload to
  /// attack (e.g. a standalone ack).
  bool tamper(std::vector<std::uint8_t>& f) {
    const auto p = decode_preamble(f);
    if (!p) return false;
    const std::size_t hdr_off =
        kPreambleBytes + (p->conn_ident_present ? ci_ : 0);
    const std::size_t pay_off = hdr_off + fixed_hdr_;
    if (f.size() <= pay_off) return false;
    const std::size_t bit = (tampered_ * 131) % ((f.size() - pay_off) * 8);
    f[pay_off + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));

    // Bind every wire region (PaEngine::bind order: conn-ident when
    // present, then proto / msg-spec / gossip / packing).
    HeaderView v(&layout_, p->byte_order);
    if (p->conn_ident_present) {
      v.set_region(static_cast<std::size_t>(FieldClass::kConnId),
                   f.data() + kPreambleBytes);
    }
    std::size_t off = hdr_off;
    for (FieldClass c : {FieldClass::kProtoSpec, FieldClass::kMsgSpec,
                         FieldClass::kGossip, FieldClass::kPacking}) {
      v.set_region(static_cast<std::size_t>(c), f.data() + off);
      off += layout_.class_bytes(c);
    }

    // The wide digest, reproduced: covered header bytes per region mask
    // (the mask excludes the msg-spec bits, checksum included), then the
    // payload stream.
    DigestStream ds;
    std::vector<std::uint8_t> buf;
    for (std::size_t r = 0; r < layout_.num_regions(); ++r) {
      const auto& mask = layout_.digest_mask(r);
      const std::uint8_t* base = v.region(r);
      if (mask.empty() || base == nullptr) continue;
      for (std::size_t i = 0; i < mask.size(); ++i) {
        buf.push_back(static_cast<std::uint8_t>(base[i] & mask[i]));
      }
    }
    ds.update(buf);
    ds.update({f.data() + pay_off, f.size() - pay_off});
    v.set(f_cksum_, ds.finish());
    ++tampered_;
    return true;
  }

  std::uint64_t tampered() const { return tampered_; }

 private:
  CompiledLayout layout_;
  FieldHandle f_cksum_{};
  std::size_t ci_ = 0;
  std::size_t proto_ = 0;
  std::size_t fixed_hdr_ = 0;
  std::uint64_t tampered_ = 0;
};

}  // namespace

int main() {
  RealLoop loop;

  // Mallory's two sockets: she forwards everything, tampering with every
  // 16th frame from Alice.
  const int ma = loop.open_udp();  // faces Alice
  const int mb = loop.open_udp();  // faces Bob

  RealEndpoint alice(loop), bob(loop);
  alice.connect_to(loop.port(ma));
  bob.connect_to(loop.port(mb));
  loop.set_peer(ma, alice.local_port());
  loop.set_peer(mb, bob.local_port());

  PaConfig cfg;
  cfg.costs = CostModel::zero();  // real time: no modeled charges
  cfg.stack.spec = StackSpec{}
                       .add(LayerSpec::comp_layer())
                       .add(LayerSpec::frag_layer(FragConfig{8192}))
                       .add(LayerSpec::seq_layer())
                       .add(LayerSpec::window_layer(WindowConfig{}))
                       .add(LayerSpec::crypt_layer())
                       .add(LayerSpec::bottom_layer(BottomConfig{}));
  PaConfig ca = cfg;
  ca.cookie_seed = 0xa11ce;
  PaConfig cb = cfg;
  cb.cookie_seed = 0xb0b;
  alice.make_pa(ca, Address{{1, 1, 1, 1}}, Address{{2, 2, 2, 2}});
  bob.make_pa(cb, Address{{2, 2, 2, 2}}, Address{{1, 1, 1, 1}});

  Mallory mallory(cfg.stack.spec);
  std::uint64_t through = 0;
  loop.on_frame(ma, [&](WireFrame f, Vt) {
    ++through;
    if (through % 16 == 0) {
      std::vector<std::uint8_t> flat = f.flatten();
      if (mallory.tamper(flat)) {
        loop.sendv(mb, WireFrame::adopt(std::move(flat)));
        return;
      }
    }
    loop.sendv(mb, f);  // clean frames forward zero-copy
  });
  loop.on_frame(mb, [&](WireFrame f, Vt) { loop.sendv(ma, f); });

  constexpr int kLines = 400;
  int echoed = 0;
  bool intact = true;

  bob.on_deliver([&](std::span<const std::uint8_t> p) {
    bob.send(p);  // echo the line back, sealed and compressed again
  });
  alice.on_deliver([&](std::span<const std::uint8_t> p) {
    const auto want = line(echoed);
    intact = intact && std::equal(p.begin(), p.end(), want.begin(), want.end());
    if (++echoed < kLines) alice.send(line(echoed));
  });

  alice.send(line(0));
  if (!loop.run_until([&] { return echoed >= kLines; }, vt_s(30))) {
    std::fprintf(stderr, "timed out after %d/%d lines\n", echoed, kLines);
    return 1;
  }

  const auto* acr = dynamic_cast<const CryptLayer*>(
      alice.engine().stack().find(LayerKind::kCrypt));
  const auto* bcr = dynamic_cast<const CryptLayer*>(
      bob.engine().stack().find(LayerKind::kCrypt));
  const auto* acomp = dynamic_cast<const CompLayer*>(
      alice.engine().stack().find(LayerKind::kComp));
  const EngineStats& sa = alice.engine().stats();
  const EngineStats& sb = bob.engine().stats();

  std::printf("secure chat: %d lines of ~300 bytes, echoed back, through a "
              "checksum-forging man-in-the-middle\n",
              kLines);
  std::printf("  transcript: %s, in order\n", intact ? "intact" : "CORRUPTED");
  std::printf("  mallory: tampered %llu frames (bit flipped, checksum "
              "fixed)\n",
              static_cast<unsigned long long>(mallory.tampered()));
  std::printf("  bob: %llu tampered frames passed the wire checksum and "
              "died at the AEAD tag\n",
              static_cast<unsigned long long>(bcr->stats().auth_failures));
  std::printf("  alice crypt: %llu frames sealed, %llu opened\n",
              static_cast<unsigned long long>(acr->stats().frames_sealed),
              static_cast<unsigned long long>(acr->stats().frames_opened));
  std::printf("  alice comp:  %llu compressed, %llu stored, %llu -> %llu "
              "bytes (%.2fx)\n",
              static_cast<unsigned long long>(acomp->stats().msgs_compressed),
              static_cast<unsigned long long>(acomp->stats().msgs_stored),
              static_cast<unsigned long long>(acomp->stats().bytes_in),
              static_cast<unsigned long long>(acomp->stats().bytes_out),
              acomp->stats().bytes_out
                  ? static_cast<double>(acomp->stats().bytes_in) /
                        static_cast<double>(acomp->stats().bytes_out)
                  : 0.0);
  std::printf("  alice: %llu/%llu sends fast, %llu/%llu deliveries "
              "predicted\n",
              static_cast<unsigned long long>(sa.fast_sends),
              static_cast<unsigned long long>(sa.fast_sends + sa.slow_sends),
              static_cast<unsigned long long>(sa.fast_delivers),
              static_cast<unsigned long long>(sa.frames_in));
  std::printf("  bob:   %llu/%llu sends fast, %llu/%llu deliveries "
              "predicted\n",
              static_cast<unsigned long long>(sb.fast_sends),
              static_cast<unsigned long long>(sb.fast_sends + sb.slow_sends),
              static_cast<unsigned long long>(sb.fast_delivers),
              static_cast<unsigned long long>(sb.frames_in));

  // The run only counts if the adversary actually struck (forged frames
  // died at the tag, nowhere else), compression actually engaged, and the
  // chat still came through untouched.
  const bool ok = intact && mallory.tampered() > 0 &&
                  bcr->stats().auth_failures == mallory.tampered() &&
                  acomp->stats().msgs_compressed > 0 &&
                  acomp->stats().bytes_in > acomp->stats().bytes_out;
  std::printf("RESULT: %s\n",
              ok ? "sealed, compressed, attacked — and intact"
                 : "UNEXPECTED");
  return ok ? 0 : 1;
}
