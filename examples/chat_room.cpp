// A group chat over the multicast subsystem, with failure detection.
//
// Demonstrates the multicast extension (paper footnote 1: the PA's
// techniques "extend to multicast protocols"). The default path runs an
// announcer fanning a totally ordered stream to N subscribers through
// src/group/'s McastGroup: one mcast() crosses the application boundary
// once and reaches every subscriber via payload-chain clones, while
// membership and stability ride the gossip header class. A subscriber that
// falls silent is suspected by the view and restored when its link heals.
//
//   --subscribers N   group size for the mcast path (default 3)
//   --legacy          the original hub-sequenced Group built purely from
//                     point-to-point PAs plus the heartbeat layer
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "group/mcast.h"
#include "horus/group.h"

using namespace pa;

namespace {

std::vector<std::uint8_t> text(std::string_view s) {
  return {s.begin(), s.end()};
}

const char* kScript[] = {
    "hi all",
    "anyone benchmarked the new stack?",
    "170 microseconds round trip",
    "with FOUR layers?!",
    "the layers run after the message is gone",
    "exactly - post-processing is off the critical path",
    "and one mcast reaches everyone for one ingest copy",
};
constexpr std::size_t kLines = sizeof(kScript) / sizeof(kScript[0]);

// --- default path: McastGroup fanout with gossip-fed membership ------------

int run_mcast(std::size_t subscribers) {
  World world;
  Node& announcer = world.add_node("announcer");
  std::vector<Node*> subs;
  subs.reserve(subscribers);
  for (std::size_t i = 0; i < subscribers; ++i) {
    subs.push_back(&world.add_node("sub" + std::to_string(i)));
  }

  group::McastOptions opt;
  opt.beacon_interval = vt_ms(20);
  opt.suspect_after = vt_ms(100);
  group::McastGroup room(world, announcer, subs, opt);

  // Every subscriber logs the common stream; we print subscriber 0's view.
  std::vector<std::string> view0;
  std::vector<std::uint64_t> got(subscribers, 0);
  for (std::size_t i = 0; i < subscribers; ++i) {
    room.on_deliver(
        static_cast<group::MemberId>(i),
        [&, i](group::MemberId, std::uint32_t seq,
               std::span<const std::uint8_t> payload) {
          ++got[i];
          if (i == 0) {
            view0.push_back(
                "#" + std::to_string(seq) + " <announcer> " +
                std::string(reinterpret_cast<const char*>(payload.data()),
                            payload.size()));
          }
        });
  }

  for (std::size_t k = 0; k < kLines; ++k) {
    world.queue().at(vt_ms(2) * (k + 1), [&room, k] {
      room.mcast(text(kScript[k]));
    });
  }
  world.run_for(vt_ms(100));
  room.poll();

  std::printf("subscriber 0's view of the room (identical on all %zu):\n",
              subscribers);
  for (const std::string& line : view0) std::printf("  %s\n", line.c_str());

  bool all_received = true;
  for (std::size_t i = 0; i < subscribers; ++i) {
    if (got[i] != kLines) all_received = false;
  }
  const bool stable =
      room.stability().has_value() && *room.stability() == room.last_seq();
  std::printf("\nstability: %u/%u acked by every subscriber, lag %u\n",
              room.stability().value_or(0), room.last_seq(),
              room.stability_lag());

  std::printf("\nper-subscriber delivery latency (send to app, virtual):\n");
  for (std::size_t i = 0; i < subscribers; ++i) {
    const auto& h = room.member_hist(static_cast<group::MemberId>(i));
    std::printf("  sub%zu: n=%llu p50=%.1fus p99=%.1fus\n", i,
                static_cast<unsigned long long>(h.count()),
                static_cast<double>(h.percentile(0.5)) / 1000.0,
                static_cast<double>(h.percentile(0.99)) / 1000.0);
  }

  // The last subscriber goes silent (its links die); gossip dries up and
  // the next polls suspect it — the view converges over the survivors.
  Node& quiet = *subs.back();
  const group::MemberId quiet_id =
      static_cast<group::MemberId>(subscribers - 1);
  world.partition(announcer, quiet);
  for (int k = 0; k < 10; ++k) {
    world.run_for(vt_ms(25));
    room.poll();
  }
  const bool suspected =
      room.view().find(quiet_id)->state == group::MemberState::kSuspect;
  std::printf("\nafter sub%u's link died: %s (view epoch %u)\n", quiet_id,
              suspected ? "SUSPECTED" : "still trusted", room.view().epoch());

  // Healing lets its beacons through again; the next gossip restores it.
  world.heal(announcer, quiet);
  for (int k = 0; k < 10; ++k) {
    world.run_for(vt_ms(25));
    room.poll();
  }
  const bool restored =
      room.view().find(quiet_id)->state == group::MemberState::kJoined;
  std::printf("after healing: %s (view epoch %u, converged: %s)\n",
              restored ? "restored" : "STILL SUSPECTED", room.view().epoch(),
              room.view().converged() ? "yes" : "no");

  const bool ok = all_received && stable && suspected && restored;
  std::printf("\n%s\n", ok ? "room consistent, failure detected and healed"
                           : "UNEXPECTED STATE");
  return ok ? 0 : 1;
}

// --- legacy path: hub-sequenced Group over point-to-point PAs --------------

int run_legacy() {
  World world;
  Node& hub = world.add_node("hub");
  Node& alice = world.add_node("alice");
  Node& bob = world.add_node("bob");
  Node& carol = world.add_node("carol");

  ConnOptions opt;
  HeartbeatConfig hb;
  hb.interval = vt_ms(20);
  hb.suspect_after = vt_ms(100);
  opt.stack.spec.push_top(LayerSpec::heartbeat_layer(hb));

  Group room(world, hub, {&alice, &bob, &carol}, opt);
  const char* names[] = {"alice", "bob", "carol"};

  // Every member logs the common stream; we print bob's view.
  std::vector<std::string> bobs_view;
  for (std::uint16_t i = 0; i < 3; ++i) {
    room.on_deliver(i, [&, i](std::uint16_t sender, std::uint32_t seq,
                              std::span<const std::uint8_t> payload) {
      if (i == 1) {
        bobs_view.push_back(
            "#" + std::to_string(seq) + " <" + names[sender] + "> " +
            std::string(reinterpret_cast<const char*>(payload.data()),
                        payload.size()));
      }
    });
  }

  // A conversation, deliberately interleaved in time.
  struct Line {
    Vt at;
    std::uint16_t who;
    const char* what;
  };
  const Line script[] = {
      {vt_ms(1), 0, "hi all"},
      {vt_ms(1), 1, "hey"},
      {vt_ms(2), 2, "anyone benchmarked the new stack?"},
      {vt_ms(2), 0, "170 microseconds round trip"},
      {vt_ms(3), 1, "with FOUR layers?!"},
      {vt_ms(3), 2, "the layers run after the message is gone"},
      {vt_ms(4), 0, "exactly - post-processing is off the critical path"},
  };
  for (const Line& l : script) {
    world.queue().at(l.at, [&, l] { room.send(l.who, text(l.what)); });
  }
  world.run_for(vt_ms(150));

  std::printf("bob's view of the room (identical on every member):\n");
  for (const std::string& line : bobs_view) {
    std::printf("  %s\n", line.c_str());
  }

  // Carol goes silent (her node's links die); the others notice.
  LinkParams dead;
  dead.loss_prob = 1.0;
  world.network().set_link(carol.id(), hub.id(), dead);
  world.run_for(vt_ms(300));

  std::printf("\nfailure detection at the hub after carol's link died:\n");
  bool any_suspected = false;
  for (std::size_t i = 0; i < 3; ++i) {
    // The hub-side heartbeat layer of each member connection.
    auto* hb = dynamic_cast<HeartbeatLayer*>(
        room.hub_endpoint(i)->engine().stack().find(LayerKind::kCustom));
    bool alive = hb && hb->peer_alive(world.now());
    std::printf("  %s: %s\n", names[i], alive ? "alive" : "SUSPECTED");
    if (!alive) any_suspected = true;
  }

  bool ok = bobs_view.size() == 7 && any_suspected;
  std::printf("\n%s\n", ok ? "room consistent, failure detected"
                           : "UNEXPECTED STATE");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool legacy = false;
  std::size_t subscribers = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--legacy") legacy = true;
    if (a == "--subscribers" && i + 1 < argc) {
      subscribers = std::strtoull(argv[i + 1], nullptr, 10);
      if (subscribers == 0) subscribers = 1;
    }
  }
  return legacy ? run_legacy() : run_mcast(subscribers);
}
