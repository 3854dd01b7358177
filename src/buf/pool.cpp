#include "buf/pool.h"

#include <algorithm>
#include <cstring>

namespace pa {

Message MessagePool::acquire(std::size_t headroom,
                             std::size_t payload_capacity) {
  ++stats_.acquires;
  const std::size_t want = headroom + payload_capacity;
  // First fit, starting past the prefix the hint proves too small. Erasing
  // at or beyond the hint and appending on release both keep the prefix
  // intact, so the hint stays true until a smaller request resets it.
  std::size_t i = want >= skip_below_ ? skip_len_ : 0;
  while (i < vsizes_.size() && vsizes_[i] < want) ++i;
  skip_len_ = i;
  skip_below_ = want;
  const bool hit = i < vsizes_.size();
  if (hit) {
    vsizes_.erase(vsizes_.begin() + static_cast<std::ptrdiff_t>(i));
  } else {
    ++stats_.fresh_allocations;
    stats_.bytes_allocated += want;
  }
  Message m(Message::FromPool{}, ChunkRef::make(headroom));
  m.pool_vsize_ = want;
  return m;
}

Message MessagePool::acquire_with_payload(
    std::span<const std::uint8_t> payload, std::size_t headroom) {
  Message m = acquire(headroom, payload.size());
  if (!payload.empty()) {
    // The copy is the ingest copy across the application boundary (same as
    // Message::append_payload).
    ChunkRef c = ChunkRef::make_uninit(payload.size());
    std::memcpy(c->data(), payload.data(), payload.size());
    ++buf_stats().ingest_copies;
    buf_stats().ingest_bytes += payload.size();
    m.chain_.push_back(Slice{std::move(c), 0, payload.size()});
    m.plen_ = payload.size();
  }
  return m;
}

void MessagePool::release(Message&& msg) {
  ++stats_.releases;
  stats_.headroom_regrow += msg.regrows();
  if (vsizes_.size() < max_cached_) {
    vsizes_.push_back(std::max(msg.capacity(), msg.pool_vsize_));
  }
  // Dropping the references frees each chunk once its last holder (an
  // in-flight frame, a retransmission clone, another engine) lets go.
  msg.head_.reset();
  msg.chain_.clear();
  msg.plen_ = 0;
  msg.hstart_ = msg.hend_ = msg.hdr_acct_ = 0;
}

}  // namespace pa
