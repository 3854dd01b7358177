// CryptLayer: AEAD-style authenticated encryption as a composable layer.
//
// The stress test for composable stacks: encryption must rewrite the whole
// frame payload (headers stay cleartext so the PA's prediction memcmp and
// the relay's hop peeking keep working) and it needs a per-frame varying
// input — the nonce. The nonce is the layer's ONLY header field, a 32-bit
// protocol-specific counter, which makes it exactly as predictable as a
// sequence number: pre_send writes next_nonce_, post_send increments it,
// predict_send/predict_deliver mirror the cursors. Get this split wrong
// (e.g. draw the nonce in the encode itself) and prediction dies — which is
// why ISSUE 10 calls this layer the constraint-model's proof.
//
// The cipher is a keyed-PRF construction built from splitmix64 in counter
// mode with a SipHash-2-4 authentication tag over the ciphertext (8-byte
// payload trailer). It is a *model* of AEAD with real reject-on-tamper
// semantics, not production cryptography — the repo bakes in no crypto
// dependency, and the point here is the protocol mechanics: where the
// nonce lives, what the checksum covers (ciphertext — the bottom layer
// runs below us), and how retransmissions replay old nonces byte-exactly.
//
// Engine integration (the frame-codec seam, see Layer::has_frame_codec):
//   - encode_frame() runs at send initiation after headers are written and
//     before the send filter fills length/checksum, so the wire checksum
//     covers the ciphertext and the tag.
//   - decode_frame() runs on delivery after the recv filter and (fast path)
//     the prediction check, before unpacking. Tag mismatch => the engine
//     drops the frame with DropReason::kAeadAuth and, on the slow path,
//     runs no post phases above this layer.
//   - Retransmissions (resend_raw) re-ship the stored ciphertext verbatim;
//     the old nonce travels in the header, so the receiver's slow path
//     decrypts it without any state.
#pragma once

#include "layers/layer.h"
#include "util/stat_fields.h"

namespace pa {

struct CryptConfig {
  std::uint64_t key0 = 0x6a09e667f3bcc908ull;  // shared key halves; both
  std::uint64_t key1 = 0xbb67ae8584caa73bull;  // sides must agree
};

// CryptLayer::Stats, one row per field (util/stat_fields.h).
#define PA_CRYPT_STATS(X)                                                      \
  X(std::uint64_t, frames_sealed, "frames_sealed_total", "",                   \
    "frames encrypted and tagged")                                             \
  X(std::uint64_t, frames_opened, "frames_opened_total", "",                   \
    "frames decrypted after tag verification")                                 \
  X(std::uint64_t, auth_failures, "auth_failures_total", "",                   \
    "frames dropped on tag mismatch")                                          \
  X(std::uint64_t, bytes_sealed, "bytes_sealed_total", "bytes",                \
    "plaintext bytes encrypted")

class CryptLayer final : public Layer {
 public:
  static constexpr std::size_t kTagBytes = 8;

  explicit CryptLayer(CryptConfig cfg) : cfg_(cfg) {}

  LayerKind kind() const override { return LayerKind::kCrypt; }
  std::string_view name() const override { return "crypt"; }

  void init(LayerInit& ctx) override;

  SendVerdict pre_send(Message& msg, HeaderView& hdr) const override;
  DeliverVerdict pre_deliver(const Message& msg,
                             const HeaderView& hdr) const override;
  void post_send(const Message& msg, const HeaderView& hdr,
                 LayerOps& ops) override;
  void post_deliver(Message& msg, const HeaderView& hdr,
                    DeliverVerdict verdict, LayerOps& ops) override;
  void predict_send(HeaderView& hdr) const override;
  void predict_deliver(HeaderView& hdr) const override;

  bool has_frame_codec() const override { return true; }
  bool encode_frame(Message& msg, const HeaderView& hdr) const override;
  bool decode_frame(Message& msg, const HeaderView& hdr) const override;

  std::uint64_t state_digest() const override;
  // Nonce cursors are per-direction *frame* counters; a lost standalone ack
  // is never re-sent, so the cursors legitimately diverge across endpoints.
  // No convergent state => sync_digest stays the default 0.

  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix) const override;

  struct Stats {
    PA_STAT_FIELDS(PA_CRYPT_STATS)
  };
  const Stats& stats() const { return stats_; }
  std::uint32_t next_nonce() const { return next_nonce_; }
  std::uint32_t expected_nonce() const { return expected_in_; }

 private:
  static bool nonce_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }

  std::uint64_t keystream_block(std::uint32_t nonce, std::uint64_t block) const;
  std::uint64_t tag(std::uint32_t nonce,
                    std::span<const std::uint8_t> ct) const;
  void apply_keystream(std::uint32_t nonce, std::span<const std::uint8_t> in,
                       std::uint8_t* out) const;

  CryptConfig cfg_;
  FieldHandle f_nonce_{};  // proto-spec, 32 bits: AEAD nonce counter

  std::uint32_t next_nonce_ = 0;    // sender: nonce of the next frame
  std::uint32_t expected_in_ = 0;   // receiver: predicted next nonce
  // Codec phases are const (they run inside the engine's pre window, where
  // protocol state must not move); stats are observability-only and
  // excluded from state_digest, so mutable is safe here.
  mutable Stats stats_;
};

}  // namespace pa
