#include "buf/message.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/checksum.h"

namespace pa {

namespace {

void note_ingest(std::size_t n) {
  ++buf_stats().ingest_copies;
  buf_stats().ingest_bytes += n;
}

}  // namespace

Message::Message(std::size_t headroom)
    : head_(ChunkRef::make(headroom)),
      hstart_(headroom),
      hend_(headroom),
      hdr_acct_(headroom) {}

Message::Message(FromPool, ChunkRef head) : head_(std::move(head)) {
  hstart_ = hend_ = hdr_acct_ = head_ ? head_->size() : 0;
}

Message Message::with_payload(std::span<const std::uint8_t> payload,
                              std::size_t headroom) {
  Message m(headroom);
  m.append_payload(payload);
  return m;
}

Message Message::with_payload(std::vector<std::uint8_t>&& payload,
                              std::size_t headroom) {
  Message m(headroom);
  const std::size_t n = payload.size();
  if (n > 0) {
    m.chain_.push_back(Slice{ChunkRef::adopt_vector(std::move(payload)), 0, n});
    m.plen_ = n;
  }
  return m;
}

void Message::replace_payload(std::vector<std::uint8_t>&& data) {
  const std::size_t n = data.size();
  chain_.clear();
  plen_ = n;
  if (n > 0) {
    chain_.push_back(Slice{ChunkRef::adopt_vector(std::move(data)), 0, n});
  }
}

Message Message::from_wire(std::span<const std::uint8_t> frame) {
  Message m(FromPool{}, ChunkRef());
  if (!frame.empty()) {
    note_ingest(frame.size());
    ChunkRef c = ChunkRef::make_uninit(frame.size());
    std::memcpy(c->data(), frame.data(), frame.size());
    m.plen_ = frame.size();
    m.chain_.push_back(Slice{std::move(c), 0, m.plen_});
  }
  return m;
}

Message Message::from_wire(WireFrame&& frame) {
  Message m(FromPool{}, ChunkRef());
  m.plen_ = frame.size();
  m.chain_ = std::move(frame).take_slices();
  return m;
}

Message Message::clone() const {
  Message m(FromPool{}, ChunkRef::make(hdr_acct_));
  m.cb = cb;
  const std::size_t hl = header_len();
  if (hl > 0) {
    // The header bytes are duplicated (they are small and the clone will be
    // patched — retransmit flag, refreshed checksum — without disturbing
    // in-flight frames); the payload chain below is shared by reference.
    // Header duplication is intentionally not counted in memcpy_*: those
    // counters track payload copies.
    assert(hdr_acct_ >= hl);
    m.hstart_ = hdr_acct_ - hl;
    std::memcpy(m.head_->data() + m.hstart_, front(), hl);
  }
  m.share_chain_of(*this);
  return m;
}

Message Message::share() const {
  Message m(FromPool{}, head_);
  m.cb = cb;
  m.hstart_ = hstart_;
  m.hend_ = hend_;
  m.hdr_acct_ = hdr_acct_;
  m.head_owned_ = false;  // header chunk shared with *this: frozen
  m.share_chain_of(*this);
  return m;
}

void Message::share_chain_of(const Message& src) {
  chain_ = src.chain_;
  plen_ = src.plen_;
  // The whole payload chain was shared by reference: account the copy (and
  // the bytes that did NOT move) so fanout benches can show one logical send
  // reaching N destinations with O(1) byte copies.
  ++buf_stats().chain_clones;
  buf_stats().chain_clone_bytes_shared += plen_;
}

std::uint8_t* Message::push(std::size_t n) {
  if (n == 0) return front();
  if (!head_) {
    const std::size_t size = std::max(kDefaultHeadroom, n);
    head_ = ChunkRef::make(size);
    hstart_ = hend_ = size;
    hdr_acct_ += size;
    head_owned_ = true;
  }
  const std::size_t hl = header_len();
  if (!head_owned_) {
    // Header bytes shared with an adopted wire frame: copy-on-write into a
    // private chunk before the first prepend.
    const std::size_t size = std::max({hdr_acct_, hl + n, kDefaultHeadroom});
    ChunkRef priv = ChunkRef::make(size);
    if (hl > 0) std::memcpy(priv->data() + size - hl, front(), hl);
    head_ = std::move(priv);
    hstart_ = size - hl;
    hend_ = size;
    hdr_acct_ = size;
    head_owned_ = true;
    ++buf_stats().cow_copies;
  }
  if (hstart_ < n) {
    // Headroom exhausted: regrow geometrically so a stack that repeatedly
    // outgrows its headroom amortises to O(1) copies per byte. Only the
    // (small) header region is copied — the payload chain never moves.
    const std::size_t old = head_->size();
    const std::size_t size = std::max({old * 2, hl + n, kDefaultHeadroom});
    ChunkRef bigger = ChunkRef::make(size);
    if (hl > 0) std::memcpy(bigger->data() + size - hl, front(), hl);
    head_ = std::move(bigger);
    hstart_ = size - hl;
    hend_ = size;
    hdr_acct_ = size;
    ++regrows_;
    ++buf_stats().headroom_regrows;
  }
  hstart_ -= n;
  return front();
}

void Message::pop(std::size_t n) {
  assert(n <= header_len() && "pop crosses into payload");
  hstart_ += n;
}

void Message::set_header_len(std::size_t n) {
  assert(header_len() == 0 && "header region already established");
  if (n == 0) return;
  assert(n <= plen_ && "header length exceeds message");
  if (chain_.empty() || chain_.front().len < n) {
    // Defensive: the first slice of every frame our engines emit covers the
    // whole header region, so this only triggers for hand-built frames.
    coalesce_payload();
  }
  Slice& s0 = chain_.front();
  head_ = s0.chunk;
  hstart_ = s0.off;
  hend_ = s0.off + n;
  head_owned_ = false;  // bytes shared with the frame (and any copy of it)
  s0.off += n;
  s0.len -= n;
  plen_ -= n;
  hdr_acct_ += n;  // moved from payload to header accounting: capacity()
                   // is unchanged, matching the flat buffer
  if (s0.len == 0) chain_.erase(chain_.begin());
}

void Message::append_payload(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  note_ingest(data.size());
  ChunkRef c = ChunkRef::make_uninit(data.size());
  std::memcpy(c->data(), data.data(), data.size());
  plen_ += data.size();
  chain_.push_back(Slice{std::move(c), 0, data.size()});
}

void Message::append_slice(Slice s) {
  if (s.len == 0) return;
  plen_ += s.len;
  chain_.push_back(std::move(s));
}

void Message::append_shared(const Message& src) {
  for (const Slice& s : src.chain_) append_slice(s);
}

Message Message::share_payload_range(std::size_t off, std::size_t len,
                                     std::size_t headroom) const {
  assert(off + len <= plen_);
  Message m(headroom);
  std::size_t skip = off;
  std::size_t want = len;
  for (const Slice& s : chain_) {
    if (want == 0) break;
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    const std::size_t take = std::min(s.len - skip, want);
    m.append_slice(Slice{s.chunk, s.off + skip, take});
    skip = 0;
    want -= take;
  }
  return m;
}

std::span<const std::uint8_t> Message::payload() const {
  if (chain_.empty()) return {};
  if (chain_.size() > 1) coalesce_payload();
  return chain_.front().span();
}

void Message::coalesce_payload() const {
  if (chain_.size() <= 1) return;
  ChunkRef c = ChunkRef::make_uninit(plen_);
  std::size_t at = 0;
  for (const Slice& s : chain_) {
    std::memcpy(c->data() + at, s.chunk->data() + s.off, s.len);
    at += s.len;
  }
  ++buf_stats().memcpy_count;
  buf_stats().memcpy_bytes += plen_;
  ++buf_stats().flattens;
  buf_stats().flatten_bytes += plen_;
  chain_.clear();
  chain_.push_back(Slice{std::move(c), 0, plen_});
}

std::uint64_t Message::payload_digest() const {
  DigestStream ds;
  for (const Slice& s : chain_) ds.update(s.span());
  return ds.finish();
}

WireFrame Message::to_wire() const {
  WireFrame f;
  f.reserve(1 + chain_.size());
  if (header_len() > 0) f.append(Slice{head_, hstart_, header_len()});
  for (const Slice& s : chain_) f.append(s);
  return f;
}

}  // namespace pa
