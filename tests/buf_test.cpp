// Unit tests: chunk-chained Message buffers, WireFrame gather lists, the
// message pool's size accounting, and the incremental digests the
// zero-copy path depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "buf/chunk.h"
#include "buf/message.h"
#include "buf/pool.h"
#include "buf/wire_frame.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace pa {
namespace {

std::vector<std::uint8_t> seq_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

/// Snapshot of the data-plane copy counters, for delta assertions.
struct CopySnapshot {
  std::uint64_t memcpy_bytes;
  std::uint64_t memcpy_count;
  static CopySnapshot now() {
    return {buf_stats().memcpy_bytes.load(), buf_stats().memcpy_count.load()};
  }
  std::uint64_t bytes_since() const {
    return buf_stats().memcpy_bytes.load() - memcpy_bytes;
  }
};

TEST(Message, EmptyDefaults) {
  Message m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.header_len(), 0u);
  EXPECT_EQ(m.payload_len(), 0u);
  EXPECT_EQ(m.headroom(), Message::kDefaultHeadroom);
}

TEST(Message, WithPayloadCopies) {
  auto data = seq_bytes(32);
  Message m = Message::with_payload(data);
  ASSERT_EQ(m.payload_len(), 32u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), m.payload().begin()));
  data[0] = 0xff;  // must not alias
  EXPECT_EQ(m.payload()[0], 0);
}

TEST(Message, WithPayloadMoveAdoptsStorage) {
  auto data = seq_bytes(32);
  const std::uint8_t* storage = data.data();
  const auto before = CopySnapshot::now();
  Message m = Message::with_payload(std::move(data));
  EXPECT_EQ(before.bytes_since(), 0u);  // ownership transfer, not a copy
  ASSERT_EQ(m.payload_len(), 32u);
  EXPECT_EQ(m.payload().data(), storage);
}

TEST(Message, PushPopHeaders) {
  Message m = Message::with_payload(seq_bytes(8));
  std::uint8_t* h = m.push(12);
  for (int i = 0; i < 12; ++i) h[i] = static_cast<std::uint8_t>(0xa0 + i);
  EXPECT_EQ(m.header_len(), 12u);
  EXPECT_EQ(m.size(), 20u);
  EXPECT_EQ(m.front()[0], 0xa0);

  std::uint8_t* h2 = m.push(4);
  EXPECT_EQ(m.header_len(), 16u);
  EXPECT_EQ(h2 + 4, m.front() + 4);

  m.pop(4);
  EXPECT_EQ(m.header_len(), 12u);
  EXPECT_EQ(m.front()[0], 0xa0);
  m.pop(12);
  EXPECT_EQ(m.header_len(), 0u);
  EXPECT_EQ(m.size(), 8u);
}

TEST(Message, PushGrowsWhenHeadroomExhausted) {
  Message m = Message::with_payload(seq_bytes(8), /*headroom=*/4);
  const auto regrows_before = buf_stats().headroom_regrows.load();
  std::uint8_t* h = m.push(64);  // exceeds headroom, must grow
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(m.header_len(), 64u);
  EXPECT_EQ(m.payload_len(), 8u);
  EXPECT_EQ(m.payload()[3], 3);
  EXPECT_EQ(m.regrows(), 1u);
  EXPECT_EQ(buf_stats().headroom_regrows.load(), regrows_before + 1);
}

TEST(Message, GeometricRegrowthAmortizesRepeatedPushes) {
  // 64 one-byte pushes against a 1-byte headroom: doubling keeps the number
  // of regrowths logarithmic, not linear.
  Message m = Message::with_payload(seq_bytes(4), /*headroom=*/1);
  for (int i = 0; i < 64; ++i) m.push(1)[0] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(m.header_len(), 64u);
  EXPECT_LE(m.regrows(), 8u);
  EXPECT_EQ(m.front()[0], 63);  // headers stack LIFO in front
}

TEST(Message, FromWireAndSetHeaderLen) {
  auto frame = seq_bytes(40);
  Message m = Message::from_wire(frame);
  EXPECT_EQ(m.size(), 40u);
  m.set_header_len(16);
  EXPECT_EQ(m.header_len(), 16u);
  EXPECT_EQ(m.payload_len(), 24u);
  m.pop(10);
  EXPECT_EQ(m.header_len(), 6u);
  EXPECT_EQ(m.front()[0], 10);
}

TEST(Message, CloneIsDeepForHeadersAndKeepsControlBlock) {
  Message m = Message::with_payload(seq_bytes(8));
  m.push(4)[0] = 0x42;
  m.cb.is_frag = true;
  m.cb.frag_id = 77;
  Message c = m.clone();
  EXPECT_EQ(c.size(), m.size());
  EXPECT_TRUE(c.cb.is_frag);
  EXPECT_EQ(c.cb.frag_id, 77);
  c.front()[0] = 0x99;  // clone's headers are private
  EXPECT_EQ(m.front()[0], 0x42);
}

TEST(Message, CloneSharesPayloadWithoutCopying) {
  Message m = Message::with_payload(seq_bytes(256));
  m.push(8);
  const auto before = CopySnapshot::now();
  Message c = m.clone();
  EXPECT_EQ(before.bytes_since(), 0u);  // payload: refcount bump only
  ASSERT_EQ(c.payload_slices().size(), m.payload_slices().size());
  EXPECT_EQ(c.payload_slices()[0].chunk.get(), m.payload_slices()[0].chunk.get());
  EXPECT_FALSE(m.payload_slices()[0].chunk->unique());
}

TEST(Message, ShareFreezesHeadersAndPushCopiesOnWrite) {
  Message m = Message::with_payload(seq_bytes(32));
  std::uint8_t* h = m.push(4);
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(0x10 + i);
  m.cb.frag_id = 9;
  const auto cow0 = buf_stats().cow_copies.load();
  const auto chunks0 = buf_stats().chunks_allocated.load();
  Message s = m.share();
  // Header chunk and payload chain by reference: no chunk, no byte copied.
  EXPECT_EQ(buf_stats().chunks_allocated.load(), chunks0);
  EXPECT_EQ(s.front(), m.front());
  EXPECT_EQ(s.payload_slices()[0].chunk.get(),
            m.payload_slices()[0].chunk.get());
  EXPECT_EQ(s.cb.frag_id, 9);
  EXPECT_EQ(s.size(), m.size());
  EXPECT_EQ(s.capacity(), m.capacity());
  EXPECT_EQ(s.headroom(), 0u);  // frozen: nothing to push into in place

  s.push(2)[0] = 0xee;
  EXPECT_EQ(buf_stats().cow_copies.load(), cow0 + 1);
  EXPECT_NE(s.front(), m.front());
  EXPECT_EQ(s.header_len(), 6u);
  EXPECT_EQ(s.front()[2], 0x10);  // the shared headers moved along
  EXPECT_EQ(m.header_len(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(m.front()[i], 0x10 + i);
  }
  EXPECT_EQ(m.payload()[31], 31);
}

TEST(Chunk, MadeChunksHoldTheirBytesInlineAndZeroed) {
  ChunkRef z = ChunkRef::make(64);
  ChunkRef u = ChunkRef::make_uninit(64);
  for (const ChunkRef& c : {z, u}) {
    ASSERT_EQ(c->size(), 64u);
    // One block: the bytes start right after the control block.
    EXPECT_EQ(c->data(),
              reinterpret_cast<const std::uint8_t*>(c.get()) + sizeof(Chunk));
  }
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(z->data()[i], 0) << i;
}

#ifndef NDEBUG
TEST(Chunk, UninitStorageIsPoisonedInDebugBuilds) {
  ChunkRef u = ChunkRef::make_uninit(64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(u->data()[i], kUninitPoison) << i;
  }
}
#endif

TEST(Message, AppendPayload) {
  Message m = Message::with_payload(seq_bytes(4));
  auto extra = seq_bytes(4);
  m.append_payload(extra);
  EXPECT_EQ(m.payload_len(), 8u);
  EXPECT_EQ(m.payload()[4], 0);
  EXPECT_EQ(m.payload()[7], 3);
}

TEST(Message, AppendSharedChainsWithoutCopying) {
  Message a = Message::with_payload(seq_bytes(64));
  Message b = Message::with_payload(seq_bytes(32));
  Message out;
  const auto before = CopySnapshot::now();
  out.append_shared(a);
  out.append_shared(b);
  EXPECT_EQ(before.bytes_since(), 0u);
  EXPECT_EQ(out.payload_len(), 96u);
  EXPECT_EQ(out.payload_slices().size(), 2u);
  // Coalescing for the contiguous view is an explicit, counted event.
  const auto flattens_before = buf_stats().flattens.load();
  auto p = out.payload();
  EXPECT_EQ(buf_stats().flattens.load(), flattens_before + 1);
  ASSERT_EQ(p.size(), 96u);
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[64], 0);
  EXPECT_EQ(p[95], 31);
}

TEST(Message, SharePayloadRangeIsZeroCopy) {
  Message m = Message::with_payload(seq_bytes(100));
  const auto before = CopySnapshot::now();
  Message frag = m.share_payload_range(40, 25);
  EXPECT_EQ(before.bytes_since(), 0u);
  ASSERT_EQ(frag.payload_len(), 25u);
  EXPECT_EQ(frag.payload_slices()[0].chunk.get(),
            m.payload_slices()[0].chunk.get());
  auto p = frag.payload();
  EXPECT_EQ(p[0], 40);
  EXPECT_EQ(p[24], 64);
}

TEST(Message, SizeSpansHeadersAndPayload) {
  Message m = Message::with_payload(seq_bytes(3));
  m.push(2);
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.headers().size(), 2u);
}

TEST(Message, ToWireGathersWithoutCopying) {
  Message m = Message::with_payload(seq_bytes(16));
  std::uint8_t* h = m.push(4);
  for (int i = 0; i < 4; ++i) h[i] = static_cast<std::uint8_t>(0xf0 + i);
  const auto before = CopySnapshot::now();
  WireFrame f = m.to_wire();
  EXPECT_EQ(before.bytes_since(), 0u);
  EXPECT_EQ(f.size(), 20u);
  EXPECT_GE(f.num_slices(), 2u);  // header slice + payload chain
  auto flat = f.flatten();
  EXPECT_EQ(flat[0], 0xf0);
  EXPECT_EQ(flat[4], 0);
  EXPECT_EQ(flat[19], 15);
}

TEST(Message, WireRoundTripIsZeroCopyAfterIngest) {
  // Send side: adopt the app's vector, push headers, emit the frame.
  // Receive side: adopt the frame, declare headers, pop them, read payload.
  // After the initial ingest not one payload byte may be copied.
  Message m = Message::with_payload(seq_bytes(64));
  m.push(8)[0] = 0xaa;
  const auto before = CopySnapshot::now();
  WireFrame f = m.to_wire();
  Message r = Message::from_wire(std::move(f));
  ASSERT_EQ(r.size(), 72u);
  r.set_header_len(8);
  EXPECT_EQ(r.front()[0], 0xaa);
  r.pop(8);
  auto p = r.payload();  // single payload slice: direct view, no coalesce
  EXPECT_EQ(before.bytes_since(), 0u);
  ASSERT_EQ(p.size(), 64u);
  EXPECT_EQ(p[63], 63);
}

TEST(WireFrame, CopyIsSharedAndMutableByteUnshares) {
  WireFrame a = WireFrame::adopt(seq_bytes(16));
  WireFrame b = a;  // refcount bump
  *a.mutable_byte(3) ^= 0xff;  // must CoW: b's view stays intact
  EXPECT_EQ(a.flatten()[3], 3 ^ 0xff);
  EXPECT_EQ(b.flatten()[3], 3);
}

TEST(WireFrame, TruncateTrimsSliceList) {
  Message m = Message::with_payload(seq_bytes(32));
  Message tail = Message::with_payload(seq_bytes(8));
  m.append_shared(tail);
  WireFrame f = m.to_wire();
  ASSERT_EQ(f.size(), 40u);
  f.truncate(34);
  EXPECT_EQ(f.size(), 34u);
  auto flat = f.flatten();
  ASSERT_EQ(flat.size(), 34u);
  EXPECT_EQ(flat[33], 1);  // second chunk's byte 1
  f.truncate(7);
  EXPECT_EQ(f.flatten(), seq_bytes(7));
}

TEST(WireFrame, DeepCopyDoesNotAlias) {
  WireFrame a = WireFrame::adopt(seq_bytes(24));
  WireFrame b = a.deep_copy();
  *a.mutable_byte(0) = 0x7f;
  EXPECT_EQ(b.flatten()[0], 0);
  EXPECT_EQ(b.size(), 24u);
}

TEST(WireFrame, PrefixSpansFirstSliceDirectly) {
  Message m = Message::with_payload(seq_bytes(16));
  m.push(8);
  WireFrame f = m.to_wire();
  std::vector<std::uint8_t> scratch;
  auto pre = f.prefix(8, scratch);
  EXPECT_EQ(pre.size(), 8u);
  EXPECT_TRUE(scratch.empty());  // header slice covered it — no copy
  EXPECT_EQ(pre.data(), f.first().data());
}

TEST(MessagePool, ReusesStorage) {
  MessagePool pool;
  Message a = pool.acquire(64, 128);
  EXPECT_EQ(pool.stats().fresh_allocations, 1u);
  pool.release(std::move(a));
  Message b = pool.acquire(64, 100);  // fits in recycled buffer
  EXPECT_EQ(pool.stats().fresh_allocations, 1u);
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().releases, 1u);
  (void)b;
}

TEST(MessagePool, AllocatesWhenTooSmall) {
  MessagePool pool;
  Message a = pool.acquire(16, 16);
  pool.release(std::move(a));
  Message b = pool.acquire(16, 4096);  // cached buffer too small
  EXPECT_EQ(pool.stats().fresh_allocations, 2u);
  (void)b;
}

TEST(MessagePool, AcquireWithPayload) {
  MessagePool pool;
  auto data = seq_bytes(10);
  Message m = pool.acquire_with_payload(data);
  EXPECT_EQ(m.payload_len(), 10u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), m.payload().begin()));
  // Reuse path must produce a clean message, not leftovers.
  pool.release(std::move(m));
  Message n = pool.acquire_with_payload(seq_bytes(3));
  EXPECT_EQ(n.payload_len(), 3u);
  EXPECT_EQ(n.header_len(), 0u);
}

TEST(MessagePool, CapRespected) {
  MessagePool pool(/*max_cached=*/2);
  pool.release(Message());
  pool.release(Message());
  pool.release(Message());
  EXPECT_EQ(pool.cached(), 2u);
}

// The first-fit scan's skip hint must not change what the pool computes.
// Random acquire/release traffic goes through the pool and through a naive
// first-fit model of it. Most releases are received frames, which are too
// small for a default-headroom send: in service they fill the cache.
TEST(MessagePool, SkipHintMatchesNaiveFirstFit) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::size_t cap = seed % 2 ? 16 : 256;
    MessagePool pool(cap);
    std::vector<std::size_t> model;  // cached sizes in release order
    std::uint64_t fresh = 0, bytes = 0, hits = 0;
    struct Held {
      Message m;
      std::size_t want;
    };
    std::vector<Held> held;
    auto model_release = [&](std::size_t size) {
      if (model.size() < cap) model.push_back(size);
    };
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t r = rng.next_below(10);
      if (r < 4) {
        // Mostly sends at the default headroom; a few small requests that
        // frames can satisfy, which must reset the hint.
        const bool small = rng.next_below(8) == 0;
        const std::size_t headroom = small ? 8 : Message::kDefaultHeadroom;
        const std::size_t payload = rng.next_below(small ? 64 : 2048);
        const std::size_t want = headroom + payload;
        const auto it = std::find_if(model.begin(), model.end(),
                                     [&](std::size_t s) { return s >= want; });
        const bool model_hit = it != model.end();
        if (model_hit) {
          model.erase(it);
          ++hits;
        } else {
          ++fresh;
          bytes += want;
        }
        const std::uint64_t before = pool.stats().fresh_allocations;
        held.push_back({pool.acquire(headroom, payload), want});
        ASSERT_EQ(pool.stats().fresh_allocations == before, model_hit)
            << "op " << op;
      } else if (r < 7 || held.empty()) {
        Message frame = Message::from_wire(
            Message::with_payload(seq_bytes(16 + rng.next_below(80)))
                .to_wire());
        model_release(frame.capacity());
        pool.release(std::move(frame));
      } else {
        const std::size_t k = rng.next_below(held.size());
        Held h = std::move(held[k]);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        model_release(std::max(h.m.capacity(), h.want));
        pool.release(std::move(h.m));
      }
      ASSERT_EQ(pool.cached(), model.size()) << "op " << op;
    }
    EXPECT_EQ(pool.stats().fresh_allocations, fresh);
    EXPECT_EQ(pool.stats().bytes_allocated, bytes);
    EXPECT_GT(hits, 100u);  // the run exercised reuse, not just misses
  }
}

TEST(MessagePool, ReleaseHoldsNoChunkReference) {
  // The pool only accounts sizes: once every message sharing a chunk is
  // released and the last clone drops, the test's own reference must be
  // the only one left, so the chunk is freed with it.
  const auto data = seq_bytes(64);
  {
    // One pool: a clone still pins the payload when the original goes back.
    MessagePool pool;
    Message m = pool.acquire_with_payload(data);
    ChunkRef held = m.payload_slices().front().chunk;
    Message keeper = m.clone();
    pool.release(std::move(m));
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           keeper.payload().begin()));
    { Message sink = std::move(keeper); }
    EXPECT_TRUE(held->unique());
  }
  {
    // Two pools sharing one chunk: zero-copy delivery between two engines.
    // The frame is copied on the way (a second holder of the same chain);
    // the copy is what arrives, bytes intact.
    MessagePool sender, receiver;
    Message m = sender.acquire_with_payload(data);
    ChunkRef held = m.payload_slices().front().chunk;
    Message keeper = m.clone();
    Message delivered;
    {
      WireFrame frame = m.to_wire();
      WireFrame copy = frame;
      delivered = Message::from_wire(std::move(copy));
    }
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           delivered.payload().begin()));
    sender.release(std::move(m));
    receiver.release(std::move(delivered));
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           keeper.payload().begin()));
    { Message sink = std::move(keeper); }
    EXPECT_TRUE(held->unique());
  }
}

TEST(MessagePool, RegrowsAccountedOnRelease) {
  MessagePool pool;
  Message m = pool.acquire(/*headroom=*/4, 16);
  m.push(64);  // forces a headroom regrow
  pool.release(std::move(m));
  EXPECT_EQ(pool.stats().headroom_regrow, 1u);
}

TEST(MessagePool, StressRandomAcquireRelease) {
  // Property: whatever the acquire/release interleaving and sizes, every
  // acquired message is clean (no headers, exact payload) and the cache
  // never exceeds its cap.
  Rng rng(0xb00c);
  MessagePool pool(16);
  std::vector<Message> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      std::size_t n = rng.next_below(300);
      std::vector<std::uint8_t> payload(n);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
      Message m = pool.acquire_with_payload(payload);
      ASSERT_EQ(m.header_len(), 0u);
      ASSERT_EQ(m.payload_len(), n);
      ASSERT_TRUE(std::equal(payload.begin(), payload.end(),
                             m.payload().begin()));
      m.push(rng.next_below(32));  // dirty it up before release
      live.push_back(std::move(m));
    } else {
      std::size_t i = rng.next_below(live.size());
      pool.release(std::move(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_LE(pool.cached(), 16u);
  }
  const auto& st = pool.stats();
  EXPECT_GT(st.acquires, 2000u);
  EXPECT_LT(st.fresh_allocations, st.acquires);  // the cache did work
}

TEST(MessagePool, StressWithSharingNeverLeaksOrCorrupts) {
  // Like the plain stress test, but messages are cloned before release: a
  // released message's chunks must stay readable through every clone that
  // still holds them (the pool keeps no chunk reference, so the refcount
  // alone keeps them alive).
  Rng rng(0xcafe);
  MessagePool pool(16);
  std::vector<Message> live;
  std::vector<std::pair<Message, std::uint64_t>> clones;  // clone + digest
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.next_double();
    if (live.empty() || roll < 0.45) {
      std::size_t n = 1 + rng.next_below(200);
      std::vector<std::uint8_t> payload(n);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
      live.push_back(pool.acquire_with_payload(payload));
    } else if (roll < 0.6 && clones.size() < 64) {
      std::size_t i = rng.next_below(live.size());
      Message c = live[i].clone();
      std::uint64_t d = c.payload_digest();
      clones.emplace_back(std::move(c), d);
    } else if (roll < 0.75 && !clones.empty()) {
      // A clone's bytes must be intact for as long as it lives, even after
      // the pool took back the message it was cloned from.
      std::size_t i = rng.next_below(clones.size());
      ASSERT_EQ(clones[i].first.payload_digest(), clones[i].second);
      clones.erase(clones.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      std::size_t i = rng.next_below(live.size());
      pool.release(std::move(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (auto& [c, d] : clones) {
    ASSERT_EQ(c.payload_digest(), d);
  }
}

// --- digests over chains ---------------------------------------------------

TEST(DigestStream, MatchesOneShotForEverySplit) {
  // An odd length leaves a tail shorter than the hardware path's 8-byte
  // words at every split.
  auto data = seq_bytes(97);
  const std::uint32_t want = crc32c(data);
  for (std::size_t cut1 = 0; cut1 <= data.size(); cut1 += 13) {
    for (std::size_t cut2 = cut1; cut2 <= data.size(); cut2 += 17) {
      DigestStream ds;
      ds.update(std::span(data).subspan(0, cut1));
      ds.update(std::span(data).subspan(cut1, cut2 - cut1));
      ds.update(std::span(data).subspan(cut2));
      ASSERT_EQ(ds.finish(), want) << "split " << cut1 << "/" << cut2;
    }
  }
}

TEST(Message, PayloadDigestMatchesFlatDigest) {
  Message m = Message::with_payload(seq_bytes(50));
  m.append_payload(seq_bytes(37));
  Message extra = Message::with_payload(seq_bytes(13));
  m.append_shared(extra);
  std::vector<std::uint8_t> flat;
  auto a = seq_bytes(50), b = seq_bytes(37), c = seq_bytes(13);
  flat.insert(flat.end(), a.begin(), a.end());
  flat.insert(flat.end(), b.begin(), b.end());
  flat.insert(flat.end(), c.begin(), c.end());
  EXPECT_EQ(m.payload_digest(), crc32c(flat));
}

TEST(Crc32c, HardwarePathMatchesSoftwareOracle) {
  // When the CPU has a CRC32 instruction the dispatched crc32c() uses it;
  // either way it must agree with the table-driven oracle on every length
  // (tails of 1..8 bytes exercise all the hardware path's fixups).
  Rng rng(42);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= 128; ++len) {
    auto s = std::span(data).subspan(0, len);
    ASSERT_EQ(crc32c(s), crc32c_sw(s)) << "len " << len;
  }
  for (std::size_t len : {255u, 256u, 1000u, 4096u}) {
    auto s = std::span(data).subspan(0, len);
    ASSERT_EQ(crc32c(s), crc32c_sw(s)) << "len " << len;
  }
  ASSERT_EQ(crc32c(std::span<const std::uint8_t>{}), 0u);
}

}  // namespace
}  // namespace pa
