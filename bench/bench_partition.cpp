// Partition bench: the health plane's three headline numbers.
//
// The robustness story (docs/INTERNALS.md, "The health plane") makes three
// quantitative claims, each gated here and tracked across PRs via
// BENCH_partition.json:
//
//   1. False-suspect rate: under ~10% Gilbert–Elliott burst loss on every
//      coordinator<->member link, phi-accrual suspicion stays quiet —
//      fewer than 1% of (member x heartbeat-interval) opportunities produce
//      a false suspicion. The detector earns this by widening its
//      inter-arrival window on noisy links (a fixed timeout at the same
//      detection latency would fire on every loss burst).
//   2. Detection latency: when members really die (a 60/40 set partition
//      cuts 40 of them off), the p99 time from cut to suspicion is under
//      8 heartbeat intervals.
//   3. Reconvergence: after the heal, the time from heal to a single
//      converged view (every member rejoined and echoing the final
//      epoch+digest) is under 10 heartbeat intervals.
//
// Plus the merge determinism bit: two diverged cliques merging each
// other's snapshots in opposite orders land on identical digests
// (GroupView::merge is commutative), the property that lets both sides of
// a healed partition reconcile without a coordinator election.
//
// Everything runs in virtual time from fixed seeds: the numbers are
// deterministic, so the repro.sh gates are exact, not statistical.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "group/mcast.h"
#include "health/plane.h"

namespace pa::bench {
namespace {

using group::GroupView;
using group::McastGroup;
using group::McastOptions;
using group::MemberId;
using group::MemberState;

constexpr VtDur kBeat = vt_ms(50);  // heartbeat (beacon) interval

// --- experiment 1: false suspicions under burst loss -----------------------

struct FalseSuspectResult {
  double rate;       // suspicions per (member x heartbeat interval)
  double suspects;   // raw count
  double damped;     // restores the flap damper withheld
};

FalseSuspectResult false_suspect_run(std::uint64_t seed) {
  WorldConfig wc;
  wc.seed = seed;
  World w(wc);
  auto& hub = w.add_node("hub", 4);
  std::vector<Node*> members;
  const std::size_t n = 32;
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }
  McastOptions opt;
  opt.beacon_interval = kBeat;
  McastGroup g(w, hub, members, opt);

  // Gilbert–Elliott burst loss both ways on every hub<->member link; the
  // FaultConfig defaults: ~12.5% mean loss in bursts of ~4.
  for (Node* m : members) {
    for (auto [from, to] : {std::pair{hub.id(), m->id()},
                            std::pair{m->id(), hub.id()}}) {
      LinkParams lp = w.network().link(from, to);
      lp.faults.ge_enabled = true;
      w.network().set_link(from, to, lp);
    }
  }

  // One mcast arms the beacon timers; after that only heartbeats flow.
  const std::vector<std::uint8_t> payload(32, 0x42);
  w.queue().at(vt_ms(1), [&] { g.mcast(payload); });
  const VtDur horizon = vt_s(10);
  for (VtDur t = vt_ms(20); t <= horizon; t += vt_ms(20)) {
    w.queue().at(t, [&g] { g.poll(); });
  }
  w.run_until(horizon);

  const double beats = static_cast<double>(horizon / kBeat);
  const auto& hs = g.health().stats();
  return {static_cast<double>(hs.suspects) / (beats * n),
          static_cast<double>(hs.suspects),
          static_cast<double>(hs.flaps_damped)};
}

// --- experiments 2+3: detection latency and post-heal reconvergence --------

struct PartitionResult {
  double detect_p50_hb;  // cut -> suspected, heartbeat intervals
  double detect_p99_hb;
  double reconverge_hb;  // heal -> one converged view, heartbeat intervals
  double deads;
  double restores;
  bool converged;
};

PartitionResult partition_run(std::uint64_t seed) {
  WorldConfig wc;
  wc.seed = seed;
  World w(wc);
  auto& hub = w.add_node("hub", 8);
  std::vector<Node*> members;
  for (int i = 0; i < 100; ++i) {
    members.push_back(&w.add_node("m" + std::to_string(i)));
  }
  McastOptions opt;
  opt.beacon_interval = kBeat;
  McastGroup g(w, hub, members, opt);
  health::HealthPlane& hp = g.health();

  const Vt t_cut = vt_s(1);
  const Vt t_heal = vt_s(2);
  const std::vector<std::uint8_t> payload(32, 0x42);
  w.queue().at(vt_ms(1), [&] { g.mcast(payload); });
  w.queue().at(t_cut, [&] {
    std::vector<Node*> side_a{&hub};
    for (int i = 0; i < 60; ++i) side_a.push_back(members[i]);
    w.partition_set("split", side_a);
  });
  w.queue().at(t_heal, [&] { w.heal_set("split"); });

  // 5 ms sampling: drive the detector and record, per cut member, the
  // first instant it is no longer kAlive; after the heal, the first
  // instant the whole view is one converged membership again.
  std::vector<Vt> detect_at(100, -1);
  Vt converged_at = -1;
  const VtDur horizon = vt_s(6);
  for (VtDur t = vt_ms(5); t <= horizon; t += vt_ms(5)) {
    w.queue().at(t, [&, t] {
      g.poll();
      if (t >= t_cut) {
        for (int i = 60; i < 100; ++i) {
          if (detect_at[i] < 0 &&
              hp.state(static_cast<health::PeerId>(i)) !=
                  health::PeerState::kAlive) {
            detect_at[i] = w.now();
          }
        }
      }
      if (t >= t_heal && converged_at < 0) {
        bool all_joined = true;
        for (int i = 0; i < 100 && all_joined; ++i) {
          const group::Member* mb = g.view().find(static_cast<MemberId>(i));
          all_joined = mb != nullptr && mb->state == MemberState::kJoined;
        }
        if (all_joined && g.view().converged()) converged_at = w.now();
      }
    });
  }
  w.run_until(horizon);

  std::vector<double> lat_hb;
  for (int i = 60; i < 100; ++i) {
    if (detect_at[i] >= 0) {
      lat_hb.push_back(static_cast<double>(detect_at[i] - t_cut) /
                       static_cast<double>(kBeat));
    }
  }
  std::sort(lat_hb.begin(), lat_hb.end());
  PartitionResult r{};
  r.detect_p50_hb = lat_hb.empty() ? 1e9 : lat_hb[lat_hb.size() / 2];
  r.detect_p99_hb =
      lat_hb.size() < 40 ? 1e9 : lat_hb[(lat_hb.size() * 99) / 100];
  r.reconverge_hb = converged_at < 0
                        ? 1e9
                        : static_cast<double>(converged_at - t_heal) /
                              static_cast<double>(kBeat);
  r.deads = static_cast<double>(hp.stats().deads);
  r.restores = static_cast<double>(hp.stats().restores);
  r.converged = converged_at >= 0;
  return r;
}

// --- merge determinism: opposite merge orders, identical digests -----------

bool merge_is_deterministic() {
  GroupView va(1), vb(1);
  for (MemberId m = 0; m < 10; ++m) {
    va.join(m);
    vb.join(m);
  }
  // Each clique's partition-era verdicts about the other side.
  va.suspect(2);
  va.suspect(3);
  vb.suspect(7);
  vb.leave(8);
  const GroupView::ViewSnapshot sa = va.snapshot();
  const GroupView::ViewSnapshot sb = vb.snapshot();
  va.merge(sb);
  vb.merge(sa);
  return va.digest() == vb.digest() && va.epoch() == vb.epoch();
}

}  // namespace
}  // namespace pa::bench

int main() {
  using namespace pa;
  using namespace pa::bench;

  banner("Partition healing: detection, false suspicions, reconvergence",
         "failure detection under the gossip layer (paper S2.1; Horus FD)");

  const FalseSuspectResult fs = false_suspect_run(1001);
  const PartitionResult pr = partition_run(2002);
  const bool merge_ok = merge_is_deterministic();

  std::printf("\n%-44s %10s %10s\n", "metric", "gate", "measured");
  std::printf("%-44s %10s %10s\n", "------", "----", "--------");
  std::printf("%-44s %10s %9.3f%%\n",
              "false-suspect rate @ ~12.5% GE loss", "< 1%",
              100.0 * fs.rate);
  std::printf("%-44s %10s %9.2f\n", "true-failure detection p99 (heartbeats)",
              "< 8", pr.detect_p99_hb);
  std::printf("%-44s %10s %9.2f\n", "post-heal reconvergence (heartbeats)",
              "< 10", pr.reconverge_hb);
  std::printf("%-44s %10s %10s\n", "merge determinism (opposite orders)",
              "yes", merge_ok ? "yes" : "NO");
  std::printf(
      "\npartition run: %.0f confirmed dead, %.0f restored, detection p50 "
      "%.2f heartbeats, converged: %s\n",
      pr.deads, pr.restores, pr.detect_p50_hb, pr.converged ? "yes" : "NO");

  const bool gate = fs.rate < 0.01 && pr.detect_p99_hb < 8.0 &&
                    pr.reconverge_hb < 10.0 && merge_ok && pr.converged &&
                    pr.deads == 40.0 && pr.restores == 40.0;

  std::vector<std::pair<std::string, double>> json;
  json.emplace_back("partition_false_suspect_rate", fs.rate);
  json.emplace_back("partition_false_suspects", fs.suspects);
  json.emplace_back("partition_flaps_damped", fs.damped);
  json.emplace_back("partition_detect_p50_hb", pr.detect_p50_hb);
  json.emplace_back("partition_detect_p99_hb", pr.detect_p99_hb);
  json.emplace_back("partition_reconverge_hb", pr.reconverge_hb);
  json.emplace_back("partition_deads", pr.deads);
  json.emplace_back("partition_restores", pr.restores);
  json.emplace_back("partition_merge_deterministic", merge_ok ? 1.0 : 0.0);
  json.emplace_back("partition_gate_ok", gate ? 1.0 : 0.0);
  emit_bench_json("partition", json);

  return gate ? 0 : 1;
}
