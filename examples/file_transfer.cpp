// Reliable bulk transfer over a lossy, reordering network.
//
// Streams a 1 MiB "file" in 4 KiB application messages across a link that
// drops 2% of frames, duplicates 1%, and jitters delivery. Exercises, end
// to end: fragmentation/reassembly (4 KiB messages over a 1 KiB fragment
// threshold), the sliding window's retransmission and stash machinery, the
// PA's packing of backlogged messages, and checksum verification by the
// receive packet filter — then verifies the received bytes exactly.
#include <cstdio>
#include <vector>

#include "horus/world.h"
#include "util/checksum.h"
#include "util/rng.h"

using namespace pa;

int main() {
  constexpr std::size_t kFileSize = 1 << 20;  // 1 MiB
  constexpr std::size_t kChunk = 4096;

  // Synthesize the file deterministically.
  std::vector<std::uint8_t> file(kFileSize);
  Rng rng(0xf11e);
  for (auto& b : file) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t file_crc = crc32c(file);

  WorldConfig wc;
  wc.link.faults.loss_prob = 0.02;
  wc.link.faults.dup_prob = 0.01;
  wc.link.faults.delay_jitter = vt_us(120);
  wc.gc_policy = GcPolicy::kEveryReception;
  wc.seed = 2026;
  World world(wc);
  Node& src_node = world.add_node("uploader");
  Node& dst_node = world.add_node("downloader");

  ConnOptions opt;
  // Each 4 KiB chunk → 4 fragments.
  opt.engine.stack.spec.find(LayerSpec::Type::kFrag)->frag.threshold = 1024;
  auto [tx, rx] = world.connect(src_node, dst_node, opt);

  std::vector<std::uint8_t> received;
  received.reserve(kFileSize);
  Vt done_at = 0;
  rx->on_deliver([&, rx = rx](std::span<const std::uint8_t> chunk) {
    received.insert(received.end(), chunk.begin(), chunk.end());
    if (received.size() >= kFileSize) done_at = rx->now();
  });

  // Offer chunks pacing slightly above what the stack absorbs, so the
  // backlog and packing stay busy.
  const std::size_t n_chunks = kFileSize / kChunk;
  for (std::size_t i = 0; i < n_chunks; ++i) {
    world.queue().at(static_cast<Vt>(i) * vt_us(200), [&, i, tx = tx] {
      tx->send(std::span<const std::uint8_t>(file.data() + i * kChunk,
                                             kChunk));
    });
  }
  world.run();

  const bool intact =
      received.size() == kFileSize && crc32c(received) == file_crc;
  const double secs = vt_to_s(done_at);
  std::printf("transferred %zu bytes in %.1f ms of virtual time "
              "(%.2f MB/s effective)\n",
              received.size(), secs * 1e3, kFileSize / secs / 1e6);
  std::printf("integrity: %s (crc32c %08x)\n", intact ? "OK" : "CORRUPT",
              crc32c(received));

  auto* win = dynamic_cast<WindowLayer*>(
      tx->engine().stack().find(LayerKind::kWindow));
  auto* frag = dynamic_cast<FragLayer*>(
      tx->engine().stack().find(LayerKind::kFrag));
  const auto& net = world.network().stats();
  std::printf("network: %llu frames sent, %llu lost, %llu duplicated\n",
              static_cast<unsigned long long>(net.frames_sent),
              static_cast<unsigned long long>(net.frames_lost),
              static_cast<unsigned long long>(net.frames_duplicated));
  std::printf("window: %llu retransmits, %llu out-of-order stashed; "
              "frag: %llu messages split into %llu fragments\n",
              static_cast<unsigned long long>(win->stats().retransmits),
              static_cast<unsigned long long>(win->stats().stashed),
              static_cast<unsigned long long>(frag->stats().fragmented_msgs),
              static_cast<unsigned long long>(frag->stats().fragments_sent));
  return intact ? 0 : 1;
}
