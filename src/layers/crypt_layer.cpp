#include "layers/crypt_layer.h"

#include <cstring>

#include "obs/bridge.h"

namespace pa {

namespace {

// splitmix64 finalizer: the keyed PRF underneath the counter-mode stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t rotl(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

// SipHash-2-4 (Aumasson & Bernstein), 64-bit tag.
std::uint64_t siphash24(std::uint64_t k0, std::uint64_t k1,
                        std::span<const std::uint8_t> data) {
  std::uint64_t v0 = 0x736f6d6570736575ull ^ k0;
  std::uint64_t v1 = 0x646f72616e646f6dull ^ k1;
  std::uint64_t v2 = 0x6c7967656e657261ull ^ k0;
  std::uint64_t v3 = 0x7465646279746573ull ^ k1;

  auto sipround = [&] {
    v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
    v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
    v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
    v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
  };

  const std::size_t n = data.size();
  const std::size_t end = n - (n % 8);
  for (std::size_t i = 0; i < end; i += 8) {
    std::uint64_t m;
    std::memcpy(&m, data.data() + i, 8);
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
  std::uint64_t last = static_cast<std::uint64_t>(n & 0xff) << 56;
  for (std::size_t i = end; i < n; ++i) {
    last |= static_cast<std::uint64_t>(data[i]) << (8 * (i - end));
  }
  v3 ^= last;
  sipround();
  sipround();
  v0 ^= last;
  v2 ^= 0xff;
  sipround();
  sipround();
  sipround();
  sipround();
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace

void CryptLayer::init(LayerInit& ctx) {
  f_nonce_ = ctx.layout.add_field(FieldClass::kProtoSpec, "aead_nonce", 32);
}

SendVerdict CryptLayer::pre_send(Message&, HeaderView& hdr) const {
  hdr.set(f_nonce_, next_nonce_);
  return SendVerdict::kOk;
}

DeliverVerdict CryptLayer::pre_deliver(const Message&,
                                       const HeaderView&) const {
  // Any nonce decrypts (it travels in the header); ordering and duplicate
  // suppression belong to the reliability layers above us.
  return DeliverVerdict::kDeliver;
}

void CryptLayer::post_send(const Message&, const HeaderView&, LayerOps&) {
  ++next_nonce_;
}

void CryptLayer::post_deliver(Message&, const HeaderView& hdr,
                              DeliverVerdict verdict, LayerOps&) {
  if (verdict == DeliverVerdict::kDrop) return;
  // Resync the prediction forward only: a retransmission replays an old
  // nonce and must not regress the expectation.
  const auto nonce = static_cast<std::uint32_t>(hdr.get(f_nonce_));
  if (!nonce_lt(nonce, expected_in_)) expected_in_ = nonce + 1;
}

void CryptLayer::predict_send(HeaderView& hdr) const {
  hdr.set(f_nonce_, next_nonce_);
}

void CryptLayer::predict_deliver(HeaderView& hdr) const {
  hdr.set(f_nonce_, expected_in_);
}

std::uint64_t CryptLayer::keystream_block(std::uint32_t nonce,
                                          std::uint64_t block) const {
  const std::uint64_t iv =
      mix64(cfg_.key1 ^ (static_cast<std::uint64_t>(nonce) << 20));
  return mix64(cfg_.key0 ^ iv ^ (block * 0x9e3779b97f4a7c15ull));
}

void CryptLayer::apply_keystream(std::uint32_t nonce,
                                 std::span<const std::uint8_t> in,
                                 std::uint8_t* out) const {
  const std::size_t n = in.size();
  for (std::size_t off = 0; off < n; off += 8) {
    const std::uint64_t ks = keystream_block(nonce, off / 8);
    const std::size_t take = n - off < 8 ? n - off : 8;
    std::uint8_t ksb[8];
    std::memcpy(ksb, &ks, 8);
    for (std::size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ ksb[i];
  }
}

std::uint64_t CryptLayer::tag(std::uint32_t nonce,
                              std::span<const std::uint8_t> ct) const {
  return siphash24(cfg_.key0, cfg_.key1 ^ nonce, ct);
}

bool CryptLayer::encode_frame(Message& msg, const HeaderView& hdr) const {
  const auto nonce = static_cast<std::uint32_t>(hdr.get(f_nonce_));
  const std::span<const std::uint8_t> pt = msg.payload();
  std::vector<std::uint8_t> ct(pt.size() + kTagBytes);
  apply_keystream(nonce, pt, ct.data());
  const std::uint64_t t =
      tag(nonce, std::span<const std::uint8_t>(ct.data(), pt.size()));
  std::memcpy(ct.data() + pt.size(), &t, kTagBytes);
  stats_.bytes_sealed += pt.size();
  ++stats_.frames_sealed;
  msg.replace_payload(std::move(ct));
  return true;
}

bool CryptLayer::decode_frame(Message& msg, const HeaderView& hdr) const {
  const std::span<const std::uint8_t> wire = msg.payload();
  if (wire.size() < kTagBytes) {
    ++stats_.auth_failures;
    return false;
  }
  const auto nonce = static_cast<std::uint32_t>(hdr.get(f_nonce_));
  const std::size_t n = wire.size() - kTagBytes;
  std::uint64_t claimed;
  std::memcpy(&claimed, wire.data() + n, kTagBytes);
  if (claimed != tag(nonce, wire.first(n))) {
    ++stats_.auth_failures;
    return false;
  }
  std::vector<std::uint8_t> pt(n);
  apply_keystream(nonce, wire.first(n), pt.data());
  ++stats_.frames_opened;
  msg.replace_payload(std::move(pt));
  return true;
}

void CryptLayer::bind_stats(obs::MetricsRegistry& reg,
                           const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
  reg.gauge_fn(prefix + "_next_nonce",
               "send-side nonce cursor (next frame's nonce)", "",
               [this] { return static_cast<double>(next_nonce_); });
  reg.gauge_fn(prefix + "_expected_nonce",
               "deliver-side nonce cursor (predicted next nonce)", "",
               [this] { return static_cast<double>(expected_in_); });
}

std::uint64_t CryptLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = digest_mix(h, next_nonce_);
  h = digest_mix(h, expected_in_);
  h = digest_mix(h, cfg_.key0);
  h = digest_mix(h, cfg_.key1);
  return h;
}

}  // namespace pa
