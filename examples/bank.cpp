// At-most-once semantics under retries: the classic "don't double-charge
// the account" scenario.
//
// A client transfers money through an RPC that it *retries* on timeout,
// over a lossy network. Without at-most-once execution, a retry whose
// original request actually arrived would debit the account twice. The
// RpcServer's reply cache (src/horus/rpc.h) answers duplicates without
// re-executing the handler — and the whole exchange still rides the PA
// fast path, because the RPC header travels inside the payload (see the
// altitude note in src/horus/rpc.h).
#include <cstdio>

#include "horus/rpc.h"

using namespace pa;

namespace {

std::vector<std::uint8_t> transfer_req(std::uint32_t amount) {
  std::vector<std::uint8_t> r(4);
  store_be32(r.data(), amount);
  return r;
}

}  // namespace

int main() {
  WorldConfig wc;
  wc.link.faults.loss_prob = 0.12;  // lossy enough that replies go missing
  wc.seed = 7;
  World world(wc);
  Node& cn = world.add_node("client");
  Node& bn = world.add_node("bank");
  ConnOptions opt;
  auto [ce, be] = world.connect(cn, bn, opt);

  std::int64_t balance = 1000;
  RpcServer bank(*be, [&](std::span<const std::uint8_t> req) {
    const std::uint32_t amount = load_be32(req.data());
    balance -= amount;
    std::printf("[bank]   executed transfer of %u, balance now %lld\n",
                amount, static_cast<long long>(balance));
    std::vector<std::uint8_t> ok(4);
    store_be32(ok.data(), static_cast<std::uint32_t>(balance));
    return ok;
  });

  // The app's patience (8 ms) is shorter than the transport's loss
  // recovery (~20 ms RTO), so a lost reply produces real duplicate
  // requests racing their own originals.
  RpcClient client(*ce, world, /*timeout=*/vt_ms(8));
  constexpr int kTransfers = 10;
  int confirmed = 0;

  // Each logical transfer is ONE retrying call: every resend reuses the
  // call id (Birrell-Nelson), so a retry racing its own original can never
  // debit the account twice.
  std::function<void(int)> attempt = [&](int n) {
    if (n >= kTransfers) return;
    client.call_retrying(
        transfer_req(50),
        [&, n](std::span<const std::uint8_t> reply) {
          ++confirmed;
          std::printf("[client] transfer %d confirmed, balance %u\n", n,
                      load_be32(reply.data()));
          attempt(n + 1);
        },
        /*max_retries=*/50);
  };
  attempt(0);
  world.run(20'000'000);

  std::printf("\n%d transfers confirmed; %llu resends reused their call "
              "ids\n",
              confirmed,
              static_cast<unsigned long long>(client.retries()));
  std::printf("bank executed %llu requests, served %llu duplicates from "
              "the reply cache\n",
              static_cast<unsigned long long>(bank.executed()),
              static_cast<unsigned long long>(bank.duplicates_served()));
  std::printf("final balance: %lld (expected %lld)\n",
              static_cast<long long>(balance),
              1000ll - 50ll * bank.executed());

  // Every confirmed transfer debited exactly once per *executed* request —
  // the invariant is that the balance matches executions, and all 10
  // logical transfers eventually confirmed.
  bool ok = confirmed == kTransfers &&
            bank.executed() == kTransfers &&  // at-most-once: no re-execution
            balance == 1000 - 50 * kTransfers;
  std::printf("%s\n", ok ? "books balance" : "ACCOUNTING MISMATCH");
  return ok ? 0 : 1;
}
