#include "buf/wire_frame.h"

#include <cassert>
#include <cstring>

namespace pa {

BufStats& buf_stats() {
  static BufStats s;
  return s;
}

WireFrame WireFrame::adopt(std::vector<std::uint8_t> bytes) {
  WireFrame f;
  const std::size_t n = bytes.size();
  if (n > 0) {
    f.append(Slice{ChunkRef::adopt_vector(std::move(bytes)), 0, n});
  }
  return f;
}

WireFrame WireFrame::copy_of(std::span<const std::uint8_t> bytes) {
  ++buf_stats().ingest_copies;
  buf_stats().ingest_bytes += bytes.size();
  return adopt(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

void WireFrame::append(Slice s) {
  if (s.len == 0) return;
  total_ += s.len;
  slices_.push_back(std::move(s));
}

std::span<const std::uint8_t> WireFrame::prefix(
    std::size_t n, std::vector<std::uint8_t>& scratch) const {
  if (n > total_) n = total_;
  if (n == 0) return {};
  if (slices_.front().len >= n) return slices_.front().span().first(n);
  scratch.clear();
  scratch.reserve(n);
  for (const Slice& s : slices_) {
    const std::size_t take = std::min(s.len, n - scratch.size());
    const auto sp = s.span();
    scratch.insert(scratch.end(), sp.begin(), sp.begin() + take);
    if (scratch.size() == n) break;
  }
  ++buf_stats().flattens;
  buf_stats().flatten_bytes += n;
  return scratch;
}

std::vector<std::uint8_t> WireFrame::flatten() const {
  std::vector<std::uint8_t> out;
  out.reserve(total_);
  for (const Slice& s : slices_) {
    const auto sp = s.span();
    out.insert(out.end(), sp.begin(), sp.end());
  }
  ++buf_stats().flattens;
  buf_stats().flatten_bytes += total_;
  return out;
}

WireFrame WireFrame::deep_copy() const {
  WireFrame out;
  for (const Slice& s : slices_) {
    ChunkRef c = ChunkRef::make_uninit(s.len);
    std::memcpy(c->data(), s.chunk->data() + s.off, s.len);
    out.append(Slice{std::move(c), 0, s.len});
  }
  ++buf_stats().memcpy_count;
  buf_stats().memcpy_bytes += total_;
  return out;
}

void WireFrame::truncate(std::size_t n) {
  if (n >= total_) return;
  std::size_t kept = 0;
  std::size_t i = 0;
  while (i < slices_.size() && kept + slices_[i].len <= n) {
    kept += slices_[i].len;
    ++i;
  }
  if (i < slices_.size()) {
    slices_[i].len = n - kept;
    if (slices_[i].len > 0) ++i;
  }
  slices_.resize(i);
  total_ = n;
}

std::uint8_t* WireFrame::mutable_byte(std::size_t i) {
  assert(i < total_);
  std::size_t off = i;
  for (Slice& s : slices_) {
    if (off < s.len) {
      if (!s.chunk->unique()) {
        ChunkRef priv = ChunkRef::make_uninit(s.len);
        std::memcpy(priv->data(), s.chunk->data() + s.off, s.len);
        ++buf_stats().cow_copies;
        ++buf_stats().memcpy_count;
        buf_stats().memcpy_bytes += s.len;
        s.chunk = std::move(priv);
        s.off = 0;
      }
      return s.chunk->data() + s.off + off;
    }
    off -= s.len;
  }
  return nullptr;  // unreachable given the assert above
}

}  // namespace pa
