// CompLayer: LZ4-class per-message payload compression.
//
// Compression is a *message transformation* in the paper's sense (§6, like
// fragmentation): it runs at send initiation via transform_send() — which
// may mutate state — and its inverse runs at the app-delivery boundary via
// the deliver-transform hook (Layer::decode_part), once per unpacked
// sub-message. The layer registers NO header fields: its framing is
// in-band, a one-byte tag in front of the payload
//
//   [0x00][original bytes...]                 stored (incompressible)
//   [0x01][varint original_len][lz bytes...]  compressed
//
// so the wire headers — and therefore the PA's predictions — are untouched
// by whether any given payload compressed well. The stored pass-through is
// zero-copy both ways: sending appends the original payload chain by
// reference behind the tag byte, delivery hands the app a subspan.
//
// The compressor is a greedy hash-table LZ (LZ4 block idiom: literal-run /
// match token stream with 16-bit offsets) written against std:: only. It
// sits above fragmentation (traits rank 10 < frag 20), so big payloads
// shrink *before* they are cut into MTU-sized fragments, and each fragment
// inherits cb.comp_done so the engine's transform pass never re-compresses.
#pragma once

#include "layers/layer.h"
#include "util/stat_fields.h"

namespace pa {

// CompLayer::Stats, one row per field (util/stat_fields.h).
#define PA_COMP_STATS(X)                                                       \
  X(std::uint64_t, msgs_compressed, "msgs_compressed_total", "",               \
    "payloads shipped in compressed form")                                     \
  X(std::uint64_t, msgs_stored, "msgs_stored_total", "",                       \
    "payloads shipped stored (small or incompressible)")                       \
  X(std::uint64_t, msgs_inflated, "msgs_inflated_total", "",                   \
    "payloads decompressed on delivery")                                       \
  X(std::uint64_t, bytes_in, "bytes_in_total", "bytes",                        \
    "payload bytes offered to the compressor")                                 \
  X(std::uint64_t, bytes_out, "bytes_out_total", "bytes",                      \
    "payload bytes shipped (tag framing included)")                            \
  X(std::uint64_t, codec_errors, "codec_errors_total", "",                     \
    "undecodable compressed payloads dropped")

class CompLayer final : public Layer {
 public:
  static constexpr std::size_t kMinPayload = 64;  // don't bother below this
  // Keep the compressed form only if it saves at least this fraction.
  static constexpr double kMinGain = 0.05;

  LayerKind kind() const override { return LayerKind::kComp; }
  std::string_view name() const override { return "comp"; }

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

  std::vector<Message> transform_send(Message& msg) override;

  bool has_deliver_transform() const override { return true; }
  bool decode_part(std::span<const std::uint8_t> in,
                   std::span<const std::uint8_t>& res,
                   std::vector<std::uint8_t>& scratch) const override;

  std::uint64_t state_digest() const override;

  void bind_stats(obs::MetricsRegistry& reg,
                  const std::string& prefix) const override;

  struct Stats {
    PA_STAT_FIELDS(PA_COMP_STATS)
  };
  const Stats& stats() const { return stats_; }

  /// Exposed for tests: raw LZ round-trip without the tag framing.
  static std::vector<std::uint8_t> lz_compress(
      std::span<const std::uint8_t> src);
  static bool lz_decompress(std::span<const std::uint8_t> src,
                            std::size_t orig_len,
                            std::vector<std::uint8_t>& out);

 private:
  // decode_part is const (it runs in the engine's deliver window); the
  // inflate/error counters are observability-only and excluded from
  // state_digest, so mutable is safe.
  mutable Stats stats_;
};

}  // namespace pa
