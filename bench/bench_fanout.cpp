// Fanout bench: the cost of one logical multicast as group size grows.
//
// The claim under test is the zero-copy fanout contract (docs/INTERNALS.md
// group chapter): one mcast() crosses the application boundary once —
// after that, reaching N members is N Message::clone() calls, each a
// header-byte copy plus a payload-chain refcount bump. Byte copies per
// logical send must therefore be O(1) in the group size; only the clone
// count is O(N). The sweep measures both from the process-global BufStats
// deltas, plus the per-member delivery latency distribution (send-to-app,
// virtual time) and the fanout amplification the group actually produced.
//
// The 16 KiB column exercises the fragmentation path: reassembly merges on
// the *member* side are real copies and scale with N by design, so the
// O(1) gate is taken on the in-MTU payload column.
#include <cstdlib>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "group/mcast.h"

namespace pa::bench {
namespace {

struct FanoutResult {
  double copies_per_mcast;  // (ingest + data-plane memcpy) deltas / mcasts
  double clones_per_mcast;  // chain clones / mcasts (the O(N) part)
  double amplification;     // engine sends per logical mcast
  double p50_us;            // per-member delivery latency, all members
  double p999_us;
  double delivered_frac;    // deliveries / (mcasts * members)
};

FanoutResult run_config(std::size_t members, std::size_t payload_bytes,
                        int mcasts, std::uint64_t seed) {
  WorldConfig wc;
  wc.seed = seed;
  World w(wc);
  // The coordinator's engines are real (simulated) CPU work; scale its
  // CPUs with the fanout so the hub doesn't fall behind virtual time.
  const std::size_t hub_cpus = members <= 32 ? 1 : members <= 128 ? 8 : 32;
  auto& hub = w.add_node("hub", hub_cpus);
  std::vector<Node*> nodes;
  nodes.reserve(members);
  for (std::size_t i = 0; i < members; ++i) {
    nodes.push_back(&w.add_node("m" + std::to_string(i)));
  }

  group::McastOptions opt;
  opt.beacon_interval = 0;  // run-to-drain: gossip rides data + acks only
  group::McastGroup g(w, hub, nodes, opt);

  const auto payload = payload_of(payload_bytes);
  const BufStats& bs = buf_stats();
  const std::uint64_t ingest0 = bs.ingest_copies.load();
  const std::uint64_t memcpy0 = bs.memcpy_count.load();
  const std::uint64_t clones0 = bs.chain_clones.load();

  // Pace well below saturation: the sweep measures the steady-state cost
  // of fanout itself, not congestion collapse (bench_maxload covers that).
  for (int k = 0; k < mcasts; ++k) {
    w.queue().at(vt_ms(15) * (k + 1), [&g, &payload] { g.mcast(payload); });
  }
  w.run();

  FanoutResult r;
  const double m = static_cast<double>(mcasts);
  r.copies_per_mcast =
      static_cast<double>((bs.ingest_copies.load() - ingest0) +
                          (bs.memcpy_count.load() - memcpy0)) /
      m;
  r.clones_per_mcast =
      static_cast<double>(bs.chain_clones.load() - clones0) / m;
  r.amplification = static_cast<double>(g.stats().fanout_sends) /
                    static_cast<double>(g.stats().mcasts);
  const obs::LatencyHistogram h = g.deliver_hist();
  r.p50_us = static_cast<double>(h.percentile(0.5)) / 1000.0;
  r.p999_us = static_cast<double>(h.percentile(0.999)) / 1000.0;
  r.delivered_frac = static_cast<double>(g.stats().delivered) /
                     (m * static_cast<double>(members));
  return r;
}

// Seeded chaos phase: the same fanout under Gilbert–Elliott burst loss on
// a third of the member links. Two runs from one seed must agree on every
// observable (deliveries, fanout sends, network fault counts) — the
// property that makes `--seed N` a reproducer handle for any chaos
// failure this bench ever surfaces. Reliability still holds: the stream
// is delivered completely through the loss.
struct ChaosDigest {
  std::uint64_t delivered = 0;
  std::uint64_t fanout_sends = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_delivered = 0;
  bool operator==(const ChaosDigest&) const = default;
};

ChaosDigest chaos_run(std::uint64_t seed, int mcasts) {
  WorldConfig wc;
  wc.seed = seed;
  World w(wc);
  auto& hub = w.add_node("hub");
  std::vector<Node*> members;
  for (int i = 0; i < 30; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }
  group::McastOptions opt;
  opt.beacon_interval = 0;  // run-to-drain
  group::McastGroup g(w, hub, members, opt);
  for (std::size_t i = 0; i < members.size(); i += 3) {
    LinkParams lp = w.network().link(hub.id(), members[i]->id());
    lp.faults.ge_enabled = true;
    w.network().set_link(hub.id(), members[i]->id(), lp);
  }
  const auto payload = payload_of(256);
  for (int k = 0; k < mcasts; ++k) {
    w.queue().at(vt_ms(10) * (k + 1), [&g, &payload] { g.mcast(payload); });
  }
  w.run();
  return {g.stats().delivered, g.stats().fanout_sends,
          w.network().stats().frames_lost,
          w.network().stats().frames_delivered};
}

}  // namespace
}  // namespace pa::bench

int main(int argc, char** argv) {
  using namespace pa;
  using namespace pa::bench;

  // --seed N shifts the world seed (cookie/address draws); the sweep is
  // deterministic for any fixed seed.
  std::uint64_t seed_base = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--seed" && i + 1 < argc) {
      seed_base = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  banner("Group fanout: copies per logical multicast vs group size",
         "masking techniques amortized across a fanout (paper S2, S4)");

  const std::size_t sizes[] = {1, 10, 100, 1000};
  const std::size_t payloads[] = {64, 1024, 16384};
  const int mcasts = 30;

  std::printf("%8s %9s | %12s %12s %9s | %10s %10s | %9s\n", "members",
              "payload", "copies/mcast", "clones/mcast", "amplif.",
              "p50 (us)", "p999 (us)", "delivered");
  std::vector<std::pair<std::string, double>> json;
  double copies_1 = 0.0, copies_1000 = 0.0;
  for (std::size_t n : sizes) {
    for (std::size_t p : payloads) {
      const FanoutResult r = run_config(n, p, mcasts, seed_base + n + p);
      std::printf("%8zu %9zu | %12.2f %12.2f %9.1f | %10.1f %10.1f | %8.1f%%\n",
                  n, p, r.copies_per_mcast, r.clones_per_mcast,
                  r.amplification, r.p50_us, r.p999_us,
                  100.0 * r.delivered_frac);
      if (p == 1024) {
        const std::string suffix = std::to_string(n);
        json.emplace_back("fanout_copies_per_mcast_" + suffix,
                          r.copies_per_mcast);
        json.emplace_back("fanout_clones_per_mcast_" + suffix,
                          r.clones_per_mcast);
        json.emplace_back("fanout_amplification_" + suffix, r.amplification);
        json.emplace_back("member_deliver_p50_us_" + suffix, r.p50_us);
        json.emplace_back("member_deliver_p999_us_" + suffix, r.p999_us);
        json.emplace_back("fanout_delivered_frac_" + suffix,
                          r.delivered_frac);
        if (n == 1) copies_1 = r.copies_per_mcast;
        if (n == 1000) copies_1000 = r.copies_per_mcast;
      }
    }
  }

  // The headline gate: growing the group 1000x must not grow byte copies
  // per logical send (the in-MTU column; chain clones are the O(N) part).
  const double o1 = copies_1000 <= copies_1 + 0.001 ? 1.0 : 0.0;
  json.emplace_back("fanout_copies_o1", o1);
  std::printf("\ncopies/mcast @1 member: %.3f   @1000 members: %.3f   O(1): %s\n",
              copies_1, copies_1000, o1 == 1.0 ? "yes" : "NO");

  // Seeded chaos phase (keyed off the same --seed knob).
  const int chaos_mcasts = 40;
  const ChaosDigest c1 = chaos_run(seed_base + 7, chaos_mcasts);
  const ChaosDigest c2 = chaos_run(seed_base + 7, chaos_mcasts);
  const double chaos_frac =
      static_cast<double>(c1.delivered) / (30.0 * chaos_mcasts);
  const double chaos_det = c1 == c2 ? 1.0 : 0.0;
  std::printf(
      "\nchaos phase (GE loss, seed %llu): delivered %.1f%%, "
      "%llu frames lost on the wire, deterministic rerun: %s\n",
      static_cast<unsigned long long>(seed_base + 7), 100.0 * chaos_frac,
      static_cast<unsigned long long>(c1.frames_lost),
      chaos_det == 1.0 ? "yes" : "NO");
  json.emplace_back("fanout_chaos_delivered_frac", chaos_frac);
  json.emplace_back("fanout_chaos_frames_lost",
                    static_cast<double>(c1.frames_lost));
  json.emplace_back("fanout_chaos_deterministic", chaos_det);

  emit_bench_json("fanout", json);
  return o1 == 1.0 && chaos_det == 1.0 && chaos_frac == 1.0 ? 0 : 1;
}
