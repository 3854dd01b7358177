#include "layers/comp_layer.h"

#include <cstring>

#include "obs/bridge.h"

namespace pa {

namespace {

constexpr std::uint8_t kStored = 0x00;
constexpr std::uint8_t kCompressed = 0x01;
constexpr unsigned kHashBits = 13;
constexpr std::size_t kMinInput = 13;   // below this LZ4-style LZ can't win
constexpr std::size_t kEndLiterals = 5; // last bytes always ship literal

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t hash32(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void emit_len(std::vector<std::uint8_t>& out, std::size_t l) {
  while (l >= 255) {
    out.push_back(255);
    l -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(l));
}

void emit_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool read_varint(std::span<const std::uint8_t> in, std::size_t& pos,
                 std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= in.size()) return false;
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint8_t> CompLayer::lz_compress(
    std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  const std::size_t n = src.size();
  const std::uint8_t* p = src.data();

  auto emit_literals = [&](std::size_t from, std::size_t count,
                           std::uint8_t match_nibble) {
    const std::uint8_t token =
        static_cast<std::uint8_t>((count < 15 ? count : 15) << 4) |
        match_nibble;
    out.push_back(token);
    if (count >= 15) emit_len(out, count - 15);
    out.insert(out.end(), p + from, p + from + count);
  };

  if (n < kMinInput) {
    emit_literals(0, n, 0);
    return out;
  }

  std::vector<std::int32_t> tbl(std::size_t{1} << kHashBits, -1);
  std::size_t pos = 0;
  std::size_t anchor = 0;
  const std::size_t mflimit = n - (kEndLiterals + 4);
  const std::size_t match_end_limit = n - kEndLiterals;

  while (pos < mflimit) {
    const std::uint32_t v = read32(p + pos);
    const std::uint32_t h = hash32(v);
    const std::int32_t cand = tbl[h];
    tbl[h] = static_cast<std::int32_t>(pos);
    if (cand < 0 || pos - static_cast<std::size_t>(cand) > 0xffff ||
        read32(p + cand) != v) {
      ++pos;
      continue;
    }
    std::size_t len = 4;
    while (pos + len < match_end_limit && p[cand + len] == p[pos + len]) {
      ++len;
    }
    const std::size_t ml = len - 4;
    emit_literals(anchor, pos - anchor,
                  static_cast<std::uint8_t>(ml < 15 ? ml : 15));
    const std::size_t offset = pos - static_cast<std::size_t>(cand);
    out.push_back(static_cast<std::uint8_t>(offset & 0xff));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (ml >= 15) emit_len(out, ml - 15);
    pos += len;
    anchor = pos;
  }
  emit_literals(anchor, n - anchor, 0);
  return out;
}

bool CompLayer::lz_decompress(std::span<const std::uint8_t> src,
                              std::size_t orig_len,
                              std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(orig_len);
  std::size_t pos = 0;

  auto read_extended = [&](std::size_t base, std::size_t& len) -> bool {
    len = base;
    if (base != 15) return true;
    while (pos < src.size() && src[pos] == 255) {
      len += 255;
      ++pos;
    }
    if (pos >= src.size()) return false;
    len += src[pos++];
    return true;
  };

  while (pos < src.size()) {
    const std::uint8_t token = src[pos++];
    std::size_t lit;
    if (!read_extended(token >> 4, lit)) return false;
    if (pos + lit > src.size() || out.size() + lit > orig_len) return false;
    out.insert(out.end(), src.begin() + pos, src.begin() + pos + lit);
    pos += lit;
    if (pos == src.size()) break;  // final sequence: literals only
    if (pos + 2 > src.size()) return false;
    const std::size_t offset =
        src[pos] | (static_cast<std::size_t>(src[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > out.size()) return false;
    std::size_t ml;
    if (!read_extended(token & 0x0f, ml)) return false;
    ml += 4;
    if (out.size() + ml > orig_len) return false;
    std::size_t from = out.size() - offset;
    // Byte-by-byte: matches may overlap their own output (RLE idiom).
    for (std::size_t i = 0; i < ml; ++i) out.push_back(out[from + i]);
  }
  return out.size() == orig_len;
}

void CompLayer::init(LayerInit&) {
  // No header fields: the framing is in-band (one tag byte in front of the
  // payload), so the predictions never see this layer.
}

SendVerdict CompLayer::pre_send(Message&, HeaderView&) const {
  return SendVerdict::kOk;
}

DeliverVerdict CompLayer::pre_deliver(const Message&,
                                      const HeaderView&) const {
  return DeliverVerdict::kDeliver;
}

void CompLayer::post_send(const Message&, const HeaderView&, LayerOps&) {}

void CompLayer::post_deliver(Message&, const HeaderView&, DeliverVerdict,
                             LayerOps&) {}

void CompLayer::predict_send(HeaderView&) const {}

void CompLayer::predict_deliver(HeaderView&) const {}

std::vector<Message> CompLayer::transform_send(Message& msg) {
  if (msg.cb.comp_done || msg.cb.protocol) return {};
  const std::size_t n = msg.payload_len();
  stats_.bytes_in += n;

  if (n >= kMinPayload) {
    const std::span<const std::uint8_t> pt = msg.payload();
    std::vector<std::uint8_t> body;
    body.push_back(kCompressed);
    emit_varint(body, n);
    const std::size_t framing = body.size();
    std::vector<std::uint8_t> lz = lz_compress(pt);
    if (static_cast<double>(lz.size() + framing) <=
        static_cast<double>(n) * (1.0 - kMinGain)) {
      body.insert(body.end(), lz.begin(), lz.end());
      Message out = Message::with_payload(std::move(body));
      out.cb = msg.cb;
      out.cb.comp_done = true;
      ++stats_.msgs_compressed;
      stats_.bytes_out += out.payload_len();
      std::vector<Message> r;
      r.push_back(std::move(out));
      return r;
    }
  }

  // Stored pass-through: tag byte up front, original chain shared behind it
  // by reference — no payload bytes move.
  Message out;
  out.cb = msg.cb;
  out.cb.comp_done = true;
  const std::uint8_t tag = kStored;
  out.append_payload(std::span<const std::uint8_t>(&tag, 1));
  out.append_shared(msg);
  ++stats_.msgs_stored;
  stats_.bytes_out += out.payload_len();
  std::vector<Message> r;
  r.push_back(std::move(out));
  return r;
}

bool CompLayer::decode_part(std::span<const std::uint8_t> in,
                            std::span<const std::uint8_t>& res,
                            std::vector<std::uint8_t>& scratch) const {
  if (in.empty()) {
    ++stats_.codec_errors;
    return false;
  }
  if (in[0] == kStored) {
    res = in.subspan(1);
    return true;
  }
  if (in[0] != kCompressed) {
    ++stats_.codec_errors;
    return false;
  }
  std::size_t pos = 1;
  std::uint64_t orig_len = 0;
  if (!read_varint(in, pos, orig_len) ||
      !lz_decompress(in.subspan(pos), orig_len, scratch)) {
    ++stats_.codec_errors;
    return false;
  }
  ++stats_.msgs_inflated;
  res = std::span<const std::uint8_t>(scratch.data(), scratch.size());
  return true;
}

void CompLayer::bind_stats(obs::MetricsRegistry& reg,
                          const std::string& prefix) const {
  obs::bind_stats(reg, stats_, prefix);
}

std::uint64_t CompLayer::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  // Send-side counters only: the deliver-side ones mutate inside const
  // decode_part and must not perturb the canonical-form digests.
  h = digest_mix(h, stats_.msgs_compressed);
  h = digest_mix(h, stats_.msgs_stored);
  h = digest_mix(h, stats_.bytes_in);
  h = digest_mix(h, stats_.bytes_out);
  return h;
}

}  // namespace pa
