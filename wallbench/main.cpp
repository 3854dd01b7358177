// wallbench — wall-clock benchmark of the Protocol Accelerator against the
// classic layered engine, on the paper's 4-layer stack (frag, seq, window,
// bottom) with CostModel::zero(): every number is real time of this C++
// code, none comes from the 1996 cost model.
//
//   wallbench --workload rpc|stream|inproc --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Workloads (closed loop, one thread, README.md says why each exists):
//   rpc     one client, one outstanding 64 B request echoed by the server,
//           over loopback UDP on one RealLoop, window 16;
//   stream  4 one-way connections over loopback UDP on one RealLoop,
//           window 64 with as many messages again backlogged, sizes drawn
//           from a seeded 64 B / 1 KiB / 4 KiB / 16 KiB mix;
//   inproc  the rpc ping-pong between two engines joined in process.
// PA and classic endpoints run in alternating short blocks (which goes
// first flips every pair), so both sides of a pair see one machine speed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the decorator
// self-check, then the workload untraced and again traced (half the
// seconds each), prints the per-layer metrics and the tracing overhead,
// and writes the span file. The last stdout line is one JSON object.
#include <sched.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "buf/chunk.h"
#include "env.h"
#include "filter/compiled.h"
#include "filter/interp.h"
#include "horus/stack.h"
#include "net/batch_io.h"
#include "pa/packing.h"
#include "payload.h"
#include "timed_layer.h"
#include "trace.h"

namespace wb {
namespace {

using pa::vt_ms;
using pa::vt_s;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans = "wallbench-spans.tsv";
};

struct Shape {
  const char* name;
  bool loopback;         // RealLoop over UDP; otherwise in process
  bool stream;           // one-way flows; otherwise ping-pong
  std::uint32_t window;  // window layer size
  int conns;             // connections per engine kind
  pa::VtDur block;       // length of one PA or classic block
};

// Blocks are short so a PA block and its classic neighbour share one
// machine speed; a pair of 2 s blocks once straddled a speed change.
constexpr Shape kShapes[] = {
    {"rpc", true, false, 16, 1, vt_ms(20)},
    {"stream", true, true, 64, 4, vt_ms(40)},
    {"inproc", false, false, 16, 1, vt_ms(10)},
};

constexpr std::size_t kRpcBytes = 64;
constexpr std::uint64_t kStreamOutstanding = 128;  // window 64 + backlog
constexpr pa::VtDur kWarmup = vt_ms(300);
// Every kEpoch of measured time the run sets up kSetupsPerCpu spare
// instances on each CPU and moves to the CPU that set up fastest, so the
// set-ups sample the whole run on every CPU.
constexpr pa::VtDur kEpoch = vt_ms(500);
constexpr int kSetupsPerCpu = 10;
// A block runs past its deadline until it holds this many samples, so at
// least 10 lie beyond its p99.
constexpr std::size_t kMinBlockSamples = 1000;
constexpr pa::VtDur kDrainBudget = vt_s(5);
constexpr const char* kLayerNames[kMaxLayers] = {"frag", "seq", "window",
                                                 "bottom"};

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would not do: Linux carries it across exec, so it reports the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

template <typename C>
double median_of(C& v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return static_cast<double>(*mid);
}

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Exact nearest-rank percentile of raw samples (reorders `v`).
template <typename C>
double percentile(C& v, double p) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  auto at = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), at, v.end());
  return static_cast<double>(*at);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// The stack.
// ---------------------------------------------------------------------------

/// The paper's evaluation stack. With `timed` each layer is wrapped in a
/// TimedLayer; the bottom's addressing is written before wrapping.
pa::StackSpec make_spec(std::uint32_t window, const pa::Address& local,
                        const pa::Address& remote, bool timed) {
  pa::WindowConfig wc;
  wc.size = window;
  pa::BottomConfig bc;
  bc.local = local;
  bc.remote = remote;
  const pa::LayerSpec plain[kMaxLayers] = {
      pa::LayerSpec::frag_layer(pa::FragConfig{8192}),
      pa::LayerSpec::seq_layer(0), pa::LayerSpec::window_layer(wc),
      pa::LayerSpec::bottom_layer(bc)};
  pa::StackSpec spec;
  for (int i = 0; i < kMaxLayers; ++i) {
    if (!timed) {
      spec.add(plain[i]);
      continue;
    }
    spec.add(pa::LayerSpec::custom([l = plain[i], i] {
      return std::make_unique<TimedLayer>(l.build(), i);
    }));
  }
  return spec;
}

pa::Address address(std::uint32_t conn, std::uint64_t side) {
  return pa::Address{{conn, side, 0x77616c6c, 0}};
}

std::uint64_t cookie_seed(std::uint64_t seed, std::uint64_t endpoint) {
  pa::Rng r(seed * 0x9e3779b97f4a7c15ull + endpoint);
  return r.next() | 1;
}

// ---------------------------------------------------------------------------
// Process-global counters (net batching, buffers), sampled around PA blocks.
// ---------------------------------------------------------------------------
struct Globals {
  std::uint64_t syscalls = 0, wakeups = 0, wake_dgrams = 0;
  std::uint64_t memcpy_bytes = 0, flatten_bytes = 0, chunks_allocated = 0,
                chunks_recycled = 0, cow_copies = 0;

  static Globals now() {
    Globals g;
    auto& bc = pa::net::batch_counters();
    g.syscalls = bc.syscalls.value();
    g.wakeups = bc.msgs_per_wakeup.count();
    g.wake_dgrams = bc.msgs_per_wakeup.sum();
    auto& bs = pa::buf_stats();
    g.memcpy_bytes = bs.memcpy_bytes.load();
    g.flatten_bytes = bs.flatten_bytes.load();
    g.chunks_allocated = bs.chunks_allocated.load();
    g.chunks_recycled = bs.chunks_recycled.load();
    g.cow_copies = bs.cow_copies.load();
    return g;
  }
  void add_delta(const Globals& a, const Globals& b) {
    syscalls += b.syscalls - a.syscalls;
    wakeups += b.wakeups - a.wakeups;
    wake_dgrams += b.wake_dgrams - a.wake_dgrams;
    memcpy_bytes += b.memcpy_bytes - a.memcpy_bytes;
    flatten_bytes += b.flatten_bytes - a.flatten_bytes;
    chunks_allocated += b.chunks_allocated - a.chunks_allocated;
    chunks_recycled += b.chunks_recycled - a.chunks_recycled;
    cow_copies += b.cow_copies - a.cow_copies;
  }
};

/// EngineStats summed over the PA endpoints.
struct PaCounts {
  std::uint64_t app_sends = 0, fast_sends = 0, slow_sends = 0,
                backlogged = 0, packed_batches = 0, packed_msgs = 0,
                frames_out = 0, conn_ident = 0, fast_delivers = 0,
                slow_delivers = 0;

  void add(const pa::EngineStats& s) {
    app_sends += s.app_sends;
    fast_sends += s.fast_sends;
    slow_sends += s.slow_sends;
    backlogged += s.backlogged;
    packed_batches += s.packed_batches;
    packed_msgs += s.packed_msgs;
    frames_out += s.frames_out;
    conn_ident += s.conn_ident_sent;
    fast_delivers += s.fast_delivers;
    slow_delivers += s.slow_delivers;
  }
  PaCounts minus(const PaCounts& o) const {
    PaCounts d = *this;
    d.app_sends -= o.app_sends;
    d.fast_sends -= o.fast_sends;
    d.slow_sends -= o.slow_sends;
    d.backlogged -= o.backlogged;
    d.packed_batches -= o.packed_batches;
    d.packed_msgs -= o.packed_msgs;
    d.frames_out -= o.frames_out;
    d.conn_ident -= o.conn_ident;
    d.fast_delivers -= o.fast_delivers;
    d.slow_delivers -= o.slow_delivers;
    return d;
  }
};

// ---------------------------------------------------------------------------
// CPU placement.
// ---------------------------------------------------------------------------
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool pin(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

// ---------------------------------------------------------------------------
// One workload instance: its connections, blocks and measurements.
// ---------------------------------------------------------------------------

/// One connection: a client and server (ping-pong) or a sender and
/// receiver (stream).
struct Conn {
  std::uint32_t id = 0;
  Endpoint* a = nullptr;
  Endpoint* b = nullptr;
  std::uint64_t next_seq = 0;  // a's next message
  std::uint64_t b_expect = 0;  // next message b expects
  bool waiting = false;        // ping-pong: a request is outstanding
  std::int64_t sent_at = 0;
  std::uint64_t inflight = 0;  // stream: sent, not yet delivered
  pa::Rng tx_sizes{1};
  pa::Rng rx_sizes{1};
  std::vector<std::int64_t> sent_ring = std::vector<std::int64_t>(256);
};

struct Block {
  std::int64_t wall_ns = 0, cpu_ns = 0;
  std::uint64_t msgs = 0, bytes = 0, wire = 0;
};

/// End-to-end results of one measured phase.
struct E2E {
  double setup_s = 0;
  double rtt_p50_us = 0, rtt_p99_us = 0;
  std::size_t rtt_samples = 0, setups = 0;
  double ratio = 0;
  std::size_t pairs = 0;
  double msgs_per_s = 0, goodput_mb_s = 0, cpu_us_per_msg = 0,
         wire_bytes_per_msg = 0, peak_rss_mb = 0;
  std::uint64_t attempted = 0, failed = 0;
  int cpu = -1;  // the CPU the run was pinned to last
};

/// What the traced phase adds for the per-layer table.
struct LayerData {
  std::uint64_t pa_msgs = 0;
  Globals g;
  PaCounts pa;
  std::uint64_t drops = 0;
  double pa_send_p50_us = 0, pa_deliver_p50_us = 0, classic_send_p50_us = 0,
         classic_deliver_p50_us = 0, post_us = 0, loop_self_us = 0;
  Tracer::Totals layer[kMaxLayers][kPhases];
};

/// The median time (s) of kSetupsPerCpu set-ups on the CPU just tried.
using SetupProbe = std::function<double()>;

class Workload {
 public:
  Workload(const Shape& sh, const Options& opt, const Payloads& pl,
           bool timed)
      : sh_(sh), opt_(opt), pl_(pl), timed_(timed) {}

  /// Build every connection, PA and classic (stacks, layouts, filters,
  /// sockets), and run the first exchange that ships the conn-idents and
  /// teaches the cookies. Returns its wall time in seconds. A first
  /// exchange that does not complete counts as failed operations.
  double setup() {
    // The previous instance's teardown is not part of this set-up.
    kinds_[0].clear();
    kinds_[1].clear();
    world_.reset();
    const std::int64_t t0 = now_ns();
    if (sh_.loopback) {
      world_ = std::make_unique<LoopWorld>();
    } else {
      world_ = std::make_unique<InprocWorld>();
    }
    std::uint32_t id = 0;
    for (int k = 0; k < 2; ++k) {
      const bool pa = k == 0;
      for (int c = 0; c < sh_.conns; ++c) {
        Conn& cn = kinds_[k].emplace_back();
        cn.id = ++id;
        cn.a = &world_->open(pa);
        cn.b = &world_->open(pa);
        world_->pair(*cn.a, *cn.b);
        const pa::Address aa = address(cn.id, 1), ba = address(cn.id, 2);
        cn.a->build(make_spec(sh_.window, aa, ba, timed_ && pa),
                    cookie_seed(opt_.seed, 2 * cn.id));
        cn.b->build(make_spec(sh_.window, ba, aa, timed_ && pa),
                    cookie_seed(opt_.seed, 2 * cn.id + 1));
        cn.tx_sizes = pa::Rng(opt_.seed ^ (0x73697a6573ull + cn.id));
        cn.rx_sizes = cn.tx_sizes;
      }
    }
    for (auto& kind : kinds_) {
      for (Conn& c : kind) wire(c);
    }
    // First exchange: one round trip per ping-pong connection; on a stream
    // connection, four frames one at a time, so the window's every-fourth-
    // frame ack carries the receiver's conn-ident back at once instead of
    // waiting for the delayed-ack timer.
    auto idle = [&] {
      for (auto& kind : kinds_) {
        for (Conn& c : kind) {
          if (c.waiting || c.inflight > 0) return false;
        }
      }
      return true;
    };
    bool ok = true;
    for (int i = 0; i < (sh_.stream ? 4 : 1); ++i) {
      for (auto& kind : kinds_) {
        for (Conn& c : kind) {
          if (sh_.stream) {
            send_stream(c);
          } else {
            send_request(c);
          }
        }
      }
      ok &= world_->run_until(idle, vt_s(2));
    }
    ok &= world_->run_until(
        [&] {
          for (auto& kind : kinds_) {
            for (Conn& c : kind) {
              if (c.a->engine().stats().frames_in == 0) return false;
            }
          }
          return true;
        },
        vt_s(2));
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    if (!ok) {
      const std::uint64_t before = failed_;
      fail_outstanding(0);
      fail_outstanding(1);
      if (failed_ == before) ++failed_;  // only the conn-ident reply is missing
      std::fprintf(stderr, "wallbench: the first exchange did not complete\n");
    }
    return secs;
  }

  /// Alternate PA and classic blocks for `seconds` of measured time (after
  /// warmup) and return the timings. At the start of every epoch the run
  /// moves to the fastest CPU (select_cpu), untraced and unmeasured;
  /// setup_s is the mean of the set-up medians taken there. With `layers`,
  /// tracing is on for the measured blocks and the per-layer data is filled
  /// in.
  E2E measure(double seconds, LayerData* layers, const SetupProbe& setups) {
    select_cpu(setups, nullptr);
    run_pairs(kWarmup, nullptr, nullptr);
    PaCounts before = pa_counts();
    if (layers) tracer.start();
    E2E e = run_pairs(static_cast<pa::VtDur>(seconds * 1e9), layers, &setups);
    if (layers) {
      tracer.stop();
      layers->pa = pa_counts().minus(before);
      for (Conn& c : kinds_[0]) {
        for (Endpoint* ep : {c.a, c.b}) {
          layers->drops += ep->engine().stats().drops.total() +
                           ep->router().stats().drops.total();
        }
      }
      fill_layers(*layers);
    }
    return e;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  int cpu() const { return cpu_; }

 private:
  /// Run `setups` on each CPU the process may use, append the results to
  /// `out` (if any) and stay on the CPU that set up fastest. On a shared
  /// 4-vCPU host one virtual CPU ran this code up to 1.7 times slower than
  /// another, in stretches of a fraction of a second to seconds, so an
  /// unpinned run's speed would depend on where the scheduler put it.
  void select_cpu(const SetupProbe& setups, std::vector<double>* out) {
    // The set the process started with: once pinned, it reads one CPU.
    static const std::vector<int> cpus = allowed_cpus();
    double best_time = 0;
    int best = -1;
    for (int c : cpus) {
      if (!pin(c)) continue;
      const double t = setups();
      if (out) out->push_back(t);
      if (best < 0 || t < best_time) {
        best_time = t;
        best = c;
      }
    }
    if (best >= 0 && pin(best)) cpu_ = best;
  }

  void wire(Conn& c) {
    Conn* cp = &c;
    if (sh_.stream) {
      c.b->env().on_deliver = [this, cp](std::span<const std::uint8_t> p) {
        on_stream(*cp, p);
      };
      c.a->env().on_deliver = [this](std::span<const std::uint8_t>) {
        ++failed_;  // nothing flows back to a sender but acks
      };
      return;
    }
    c.a->env().on_deliver = [this, cp](std::span<const std::uint8_t> p) {
      on_reply(*cp, p);
    };
    c.b->env().on_deliver = [this, cp](std::span<const std::uint8_t> p) {
      on_request(*cp, p);
    };
  }

  void send_request(Conn& c) {
    pl_.make(c.id, c.next_seq, kRpcBytes, buf_);
    c.waiting = true;
    ++attempted_;
    c.sent_at = now_ns();
    c.a->send(buf_, msg_id(c.id, c.next_seq++));
  }

  void on_request(Conn& c, std::span<const std::uint8_t> p) {
    if (!pl_.check(p, c.id, c.b_expect, kRpcBytes)) {
      bad_delivery(c, "request");
      return;
    }
    ++c.b_expect;
    ++delivered_;
    bytes_ += p.size();
    c.b->send(p, msg_id(c.id, c.b_expect - 1));  // echo
  }

  void on_reply(Conn& c, std::span<const std::uint8_t> p) {
    const std::int64_t t = now_ns();
    if (!c.waiting || !pl_.check(p, c.id, c.next_seq - 1, kRpcBytes)) {
      bad_delivery(c, "reply");
      return;
    }
    c.waiting = false;
    ++delivered_;
    bytes_ += p.size();
    if (samples_) samples_->push_back(static_cast<std::uint32_t>(t - c.sent_at));
    if (refill_ && !block_done(t)) send_request(c);
  }

  bool block_done(std::int64_t t) const {
    return t >= deadline_ && samples_->size() >= kMinBlockSamples;
  }

  void send_stream(Conn& c) {
    const std::size_t len = draw_stream_size(c.tx_sizes);
    pl_.make(c.id, c.next_seq, len, buf_);
    ++c.inflight;
    ++attempted_;
    c.sent_ring[c.next_seq % c.sent_ring.size()] = now_ns();
    c.a->send(buf_, msg_id(c.id, c.next_seq++));
  }

  void on_stream(Conn& c, std::span<const std::uint8_t> p) {
    const std::int64_t t = now_ns();
    const std::size_t len = draw_stream_size(c.rx_sizes);
    if (c.inflight == 0 || !pl_.check(p, c.id, c.b_expect, len)) {
      bad_delivery(c, "stream message");
      return;
    }
    const std::uint64_t seq = c.b_expect++;
    --c.inflight;
    ++delivered_;
    bytes_ += p.size();
    if (samples_) {
      samples_->push_back(static_cast<std::uint32_t>(
          t - c.sent_ring[seq % c.sent_ring.size()]));
    }
    if (refill_) send_stream(c);
  }

  void bad_delivery(const Conn& c, const char* what) {
    if (failed_ < 5) {
      std::fprintf(stderr,
                   "wallbench: conn %u: %s lost, duplicated, reordered or "
                   "corrupted\n",
                   c.id, what);
    }
    ++failed_;
  }

  /// Requests without a response and messages never delivered fail.
  void fail_outstanding(int kind) {
    for (Conn& c : kinds_[kind]) {
      failed_ += c.inflight + (c.waiting ? 1 : 0);
      c.inflight = 0;
      c.waiting = false;
    }
  }

  std::uint64_t wire_bytes(int kind) {
    std::uint64_t w = 0;
    for (Conn& c : kinds_[kind]) w += c.a->env().wire_bytes + c.b->env().wire_bytes;
    return w;
  }

  PaCounts pa_counts() {
    PaCounts p;
    for (Conn& c : kinds_[0]) {
      p.add(c.a->engine().stats());
      p.add(c.b->engine().stats());
    }
    return p;
  }

  /// Run one block of one engine kind; its latency samples go to `out`.
  Block run_block(int kind, std::vector<std::uint32_t>& out) {
    out.clear();
    samples_ = &out;
    Block b;
    const std::uint64_t m0 = delivered_, by0 = bytes_, w0 = wire_bytes(kind);
    const std::int64_t c0 = cpu_ns(), t0 = now_ns();
    deadline_ = t0 + sh_.block;
    refill_ = true;
    bool ok = true;
    {
      Span loop(kind == 0 ? kLoopPa : kLoopClassic);
      if (sh_.stream) {
        for (Conn& c : kinds_[kind]) {
          while (c.inflight < kStreamOutstanding) send_stream(c);
        }
        world_->run_until([&] { return block_done(now_ns()); },
                          sh_.block + vt_s(1));
        refill_ = false;
        ok = world_->run_until(
            [&] {
              for (Conn& c : kinds_[kind]) {
                if (c.inflight > 0) return false;
              }
              return true;
            },
            kDrainBudget);
      } else {
        for (Conn& c : kinds_[kind]) send_request(c);
        ok = world_->run_until(
            [&] {
              for (Conn& c : kinds_[kind]) {
                if (c.waiting) return false;
              }
              return true;
            },
            sh_.block + kDrainBudget);
      }
    }
    refill_ = false;
    samples_ = nullptr;
    if (!ok) {
      fail_outstanding(kind);
      std::fprintf(stderr, "wallbench: a %s block did not drain\n",
                   kind == 0 ? "PA" : "classic");
    }
    b.wall_ns = now_ns() - t0;
    b.cpu_ns = cpu_ns() - c0;
    b.msgs = delivered_ - m0;
    b.bytes = bytes_ - by0;
    b.wire = wire_bytes(kind) - w0;
    return b;
  }

  /// Alternating block pairs for `span` of wall time. The round-trip
  /// percentiles are the mean over PA blocks of each block's exact
  /// percentile (from its raw samples); rates and costs are totals over all
  /// PA blocks. The ratio is the median over block pairs of the blocks'
  /// median round trips; on stream, whose blocks are ruled by
  /// retransmission timeouts (a pair's ratio ranged from 0.8 to 5), it is
  /// the ratio of wall time per delivered message over all blocks, which by
  /// Little's law is the ratio of mean send-to-delivery times.
  E2E run_pairs(pa::VtDur span, LayerData* layers, const SetupProbe* setups) {
    std::uint64_t pa_msgs = 0, pa_wire = 0, pa_bytes = 0, cl_msgs = 0;
    std::int64_t pa_wall = 0, pa_cpu = 0, cl_wall = 0, spent = 0,
                 next_epoch = 0;
    std::vector<double> ratios, p50s, p99s, setup_times;
    E2E e;
    for (int pair = 0; spent < span; ++pair) {
      if (setups && spent >= next_epoch) {
        const bool traced = tracer.on();
        tracer.stop();
        select_cpu(*setups, &setup_times);
        if (traced) tracer.resume();
        next_epoch += kEpoch;
      }
      const bool pa_first = pair % 2 == 0;
      for (int j = 0; j < 2; ++j) {
        const int kind = (j == 0) == pa_first ? 0 : 1;
        const Globals g0 = Globals::now();
        const Block b = run_block(kind, kind == 0 ? pa_block_ : cl_block_);
        spent += b.wall_ns;
        if (kind != 0) {
          cl_msgs += b.msgs;
          cl_wall += b.wall_ns;
          continue;
        }
        if (layers) layers->g.add_delta(g0, Globals::now());
        pa_msgs += b.msgs;
        pa_wire += b.wire;
        pa_bytes += b.bytes;
        pa_wall += b.wall_ns;
        pa_cpu += b.cpu_ns;
        e.rtt_samples += pa_block_.size();
        p50s.push_back(percentile(pa_block_, 0.50));
        p99s.push_back(percentile(pa_block_, 0.99));
      }
      ratios.push_back(ratio(median_of(pa_block_), median_of(cl_block_)));
    }
    e.pairs = ratios.size();
    e.setups = setup_times.size() * kSetupsPerCpu;
    // A mean across CPUs and epochs: set-up times follow the host's speed,
    // which switches between two levels, and a median over them would jump
    // from one level to the other from run to run.
    e.setup_s = mean_of(setup_times);
    e.rtt_p50_us = mean_of(p50s) / 1e3;
    e.rtt_p99_us = mean_of(p99s) / 1e3;
    const double msgs = static_cast<double>(pa_msgs);
    e.ratio = sh_.stream
                  ? ratio(static_cast<double>(pa_wall) / msgs,
                          static_cast<double>(cl_wall) /
                              static_cast<double>(cl_msgs))
                  : median_of(ratios);
    const double secs = static_cast<double>(pa_wall) / 1e9;
    e.msgs_per_s = ratio(msgs, secs);
    e.goodput_mb_s = ratio(static_cast<double>(pa_bytes) / 1e6, secs);
    e.cpu_us_per_msg = ratio(static_cast<double>(pa_cpu) / 1e3, msgs);
    e.wire_bytes_per_msg = ratio(static_cast<double>(pa_wire), msgs);
    if (layers) layers->pa_msgs = pa_msgs;
    return e;
  }

  void fill_layers(LayerData& d) {
    const double msgs = static_cast<double>(d.pa_msgs);
    d.pa_send_p50_us = median_of(tracer.samples(kPaSend)) / 1e3;
    d.pa_deliver_p50_us = median_of(tracer.samples(kPaOnFrame)) / 1e3;
    d.classic_send_p50_us = median_of(tracer.samples(kClassicSend)) / 1e3;
    d.classic_deliver_p50_us =
        median_of(tracer.samples(kClassicOnFrame)) / 1e3;
    d.post_us =
        ratio(static_cast<double>(tracer.totals(kDeferred).total_ns) / 1e3,
              msgs);
    d.loop_self_us =
        sh_.loopback
            ? ratio(static_cast<double>(tracer.totals(kLoopPa).self_ns) / 1e3,
                    msgs)
            : 0;
    for (int l = 0; l < kMaxLayers; ++l) {
      for (int p = 0; p < kPhases; ++p) {
        d.layer[l][p] = tracer.totals(kLayerBase + l * kPhases + p);
      }
    }
  }

  const Shape& sh_;
  const Options& opt_;
  const Payloads& pl_;
  bool timed_;
  std::unique_ptr<World> world_;
  std::deque<Conn> kinds_[2];  // [0] PA, [1] classic; deque: stable addresses
  std::vector<std::uint8_t> buf_;
  // Per-block samples, reused from block to block so the resident set does
  // not grow with the run.
  std::vector<std::uint32_t> pa_block_, cl_block_;
  std::vector<std::uint32_t>* samples_ = nullptr;
  bool refill_ = false;
  std::int64_t deadline_ = 0;
  std::uint64_t delivered_ = 0, bytes_ = 0, attempted_ = 0, failed_ = 0;
  int cpu_ = -1;
};

/// Set up one instance and measure it. The set-ups that setup_s counts are
/// those of a spare instance, each from scratch. A first exchange that
/// fails leaves the instance unmeasured.
E2E run_instance(const Shape& sh, const Options& opt, const Payloads& pl,
                 bool traced, double seconds, LayerData* layers) {
  Workload w(sh, opt, pl, traced), spare(sh, opt, pl, traced);
  E2E e;
  w.setup();
  if (w.failed() == 0) {
    e = w.measure(seconds, layers, [&] {
      std::vector<double> times;
      for (int i = 0; i < kSetupsPerCpu && spare.failed() == 0; ++i) {
        times.push_back(spare.setup());
      }
      return median_of(times);
    });
  }
  e.peak_rss_mb = peak_rss_mb();
  e.cpu = w.cpu();
  e.attempted = w.attempted() + spare.attempted();
  e.failed = w.failed() + spare.failed();
  return e;
}

// ---------------------------------------------------------------------------
// Decorator self-check: the decorated stack's frames equal the plain ones.
// ---------------------------------------------------------------------------
std::size_t self_check(const Options& opt, const Payloads& pl, bool& ok) {
  auto capture = [&](bool timed, bool& delivered_ok) {
    InprocWorld w(/*frozen_clock=*/true);
    Endpoint& a = w.open(true);
    Endpoint& b = w.open(true);
    w.pair(a, b);
    std::vector<std::vector<std::uint8_t>> frames;
    a.env().tap = &frames;
    b.env().tap = &frames;
    const pa::Address aa = address(1, 1), ba = address(1, 2);
    a.build(make_spec(64, aa, ba, timed), cookie_seed(opt.seed, 2));
    b.build(make_spec(64, ba, aa, timed), cookie_seed(opt.seed, 3));
    pa::Rng tx(opt.seed ^ 0x73656c66ull), rx = tx;
    std::uint64_t sent = 0, got = 0, back = 0;
    delivered_ok = true;
    b.env().on_deliver = [&](std::span<const std::uint8_t> p) {
      delivered_ok &= pl.check(p, 1, got++, draw_stream_size(rx));
    };
    a.env().on_deliver = [&](std::span<const std::uint8_t> p) {
      delivered_ok &= pl.check(p, 2, back++, kRpcBytes);
    };
    std::vector<std::uint8_t> buf;
    // Bursts build a backlog (packing) and 16 KiB messages fragment; a
    // reply per round sends data the other way.
    for (int round = 0; round < 24; ++round) {
      for (int i = 0; i < 6; ++i) {
        pl.make(1, sent, draw_stream_size(tx), buf);
        a.send(buf, msg_id(1, sent));
        ++sent;
      }
      pl.make(2, round, kRpcBytes, buf);
      b.send(buf, msg_id(2, round));
      w.run_until([] { return false; }, vt_s(5));
    }
    delivered_ok &= got == sent && back == 24;
    return frames;
  };
  bool plain_ok = false, timed_ok = false;
  const auto plain = capture(false, plain_ok);
  const auto timed = capture(true, timed_ok);
  ok = plain_ok && timed_ok && plain == timed && !plain.empty();
  return plain.size();
}

// ---------------------------------------------------------------------------
// Filter programs in isolation (the way bench_filter builds its fixture).
// ---------------------------------------------------------------------------
struct FilterFix {
  explicit FilterFix(std::size_t payload)
      : stack(make_spec(16, address(1, 1), address(1, 2), false)),
        // Same fields with a frag threshold above the payload, so its send
        // program fills len + checksum where the real one rejects the size.
        fill(fill_spec()),
        msg(pa::Message::with_payload(std::vector<std::uint8_t>(payload, 0x5a))) {
    pa::register_packing_fields(stack.registry());
    pa::register_packing_fields(fill.registry());
    stack.init();
    fill.init();
    layout = stack.registry().compile(pa::LayoutMode::kCompact);
    std::size_t total = 0;
    for (std::size_t c = 0; c < pa::kNumFieldClasses; ++c) {
      total += layout.region_bytes(c);
    }
    hdr.assign(total, 0);
    csend = pa::CompiledFilter::compile(stack.send_prog(), layout,
                                        pa::host_endian());
    crecv = pa::CompiledFilter::compile(stack.recv_prog(), layout,
                                        pa::host_endian());
  }

  static pa::StackSpec fill_spec() {
    pa::StackSpec s = make_spec(16, address(1, 1), address(1, 2), false);
    s.layers[0].frag.threshold = 1u << 20;
    return s;
  }

  pa::HeaderView view() {
    pa::HeaderView v(&layout, pa::host_endian());
    std::size_t off = 0;
    for (std::size_t c = 0; c < pa::kNumFieldClasses; ++c) {
      v.set_region(c, hdr.data() + off);
      off += layout.region_bytes(c);
    }
    return v;
  }

  /// Write len + checksum so the receive program accepts the message.
  bool prime() {
    pa::HeaderView v = view();
    return pa::run_filter(fill.send_prog(), v, msg) == 1;
  }

  pa::Stack stack;
  pa::Stack fill;
  pa::CompiledLayout layout;
  std::vector<std::uint8_t> hdr;
  pa::Message msg;
  pa::CompiledFilter csend, crecv;
};

volatile std::int64_t g_sink;  // keeps timed filter results alive

/// Median ns per call over 11 batches.
template <typename F>
double time_calls(std::size_t iters, F&& run) {
  std::vector<double> per_call;
  std::int64_t sink = 0;
  for (int b = 0; b < 11; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) sink += run();
    per_call.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(iters));
  }
  g_sink = sink;
  return median_of(per_call);
}

struct FilterTimes {
  std::string label;
  double send_compiled, send_interp, recv_compiled, recv_interp;
};

FilterTimes time_filters(std::size_t payload, const char* label, bool& ok) {
  FilterFix f(payload);
  ok &= f.prime();
  const std::size_t iters = payload <= 64 ? 4000 : 200;
  pa::HeaderView v = f.view();
  FilterTimes t{label, 0, 0, 0, 0};
  t.recv_compiled = time_calls(iters, [&] { return f.crecv.run(v, f.msg); });
  t.recv_interp = time_calls(
      iters, [&] { return pa::run_filter(f.stack.recv_prog(), v, f.msg); });
  ok &= f.crecv.run(v, f.msg) == 1;
  t.send_compiled = time_calls(iters, [&] { return f.csend.run(v, f.msg); });
  t.send_interp = time_calls(
      iters, [&] { return pa::run_filter(f.stack.send_prog(), v, f.msg); });
  return t;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> e2e_metrics(const E2E& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"rtt_p50_us", e.rtt_p50_us, "us"},
      {"rtt_p99_us", e.rtt_p99_us, "us"},
      {"pa_classic_rtt_ratio", e.ratio, "ratio"},
      {"msgs_per_s", e.msgs_per_s, "msg/s"},
      {"goodput_mb_s", e.goodput_mb_s, "MB/s"},
      {"cpu_us_per_msg", e.cpu_us_per_msg, "us"},
      {"wire_bytes_per_msg", e.wire_bytes_per_msg, "B"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
  };
}

void print_e2e(const char* title, const E2E& e) {
  std::printf("%s (last on cpu %d)\n", title, e.cpu);
  for (const Metric& m : e2e_metrics(e)) {
    std::printf("  %-22s %14.4f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name == "rtt_p50_us" || m.name == "rtt_p99_us") {
      std::printf("  (n=%zu in %zu PA blocks)", e.rtt_samples, e.pairs);
    } else if (m.name == "pa_classic_rtt_ratio") {
      std::printf("  (%zu block pairs)", e.pairs);
    } else if (m.name == "setup_s") {
      std::printf("  (%zu set-ups)", e.setups);
    }
    std::printf("\n");
  }
  std::printf("  %-22s %14.6f ratio  (%llu failed / %llu attempted)\n",
              "failed_frac",
              ratio(static_cast<double>(e.failed),
                    static_cast<double>(e.attempted)),
              static_cast<unsigned long long>(e.failed),
              static_cast<unsigned long long>(e.attempted));
}

std::vector<Metric> layer_metrics(const LayerData& d,
                                  const std::vector<FilterTimes>& filters) {
  const double msgs = static_cast<double>(d.pa_msgs);
  auto per_msg = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), msgs);
  };
  auto frac = [](std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(a), static_cast<double>(b));
  };
  std::vector<Metric> ms = {
      {"net.syscalls_per_msg", per_msg(d.g.syscalls), "count"},
      {"net.datagrams_per_wakeup", frac(d.g.wake_dgrams, d.g.wakeups),
       "count"},
      {"net.loop_self_us_per_msg", d.loop_self_us, "us"},
      {"pa.send_us_p50", d.pa_send_p50_us, "us"},
      {"pa.deliver_us_p50", d.pa_deliver_p50_us, "us"},
      {"pa.post_us_per_msg", d.post_us, "us"},
      {"pa.fast_send_ratio",
       frac(d.pa.fast_sends, d.pa.fast_sends + d.pa.slow_sends), "ratio"},
      {"pa.fast_deliver_ratio",
       frac(d.pa.fast_delivers, d.pa.fast_delivers + d.pa.slow_delivers),
       "ratio"},
      {"pa.backlog_ratio", frac(d.pa.backlogged, d.pa.app_sends), "ratio"},
      {"pa.msgs_per_packed_batch",
       frac(d.pa.packed_msgs, d.pa.packed_batches), "count"},
      {"pa.frames_per_msg", per_msg(d.pa.frames_out), "count"},
      {"pa.conn_ident_frames", static_cast<double>(d.pa.conn_ident), "count"},
      {"pa.drops", static_cast<double>(d.drops), "count"},
      {"classic.send_us_p50", d.classic_send_p50_us, "us"},
      {"classic.deliver_us_p50", d.classic_deliver_p50_us, "us"},
  };
  for (int l = 0; l < kMaxLayers; ++l) {
    for (int p = 0; p < kPhases; ++p) {
      const std::string base =
          std::string("layers.") + kLayerNames[l] + "." + kPhaseNames[p];
      ms.push_back({base + "_ns_per_msg",
                    ratio(static_cast<double>(d.layer[l][p].self_ns), msgs),
                    "ns"});
      ms.push_back({base + "_calls_per_msg", per_msg(d.layer[l][p].calls),
                    "count"});
    }
  }
  for (const FilterTimes& f : filters) {
    ms.push_back({"filter.send_compiled_ns_" + f.label, f.send_compiled, "ns"});
    ms.push_back({"filter.send_interp_ns_" + f.label, f.send_interp, "ns"});
    ms.push_back({"filter.recv_compiled_ns_" + f.label, f.recv_compiled, "ns"});
    ms.push_back({"filter.recv_interp_ns_" + f.label, f.recv_interp, "ns"});
  }
  ms.push_back({"buf.memcpy_bytes_per_msg", per_msg(d.g.memcpy_bytes), "B"});
  ms.push_back({"buf.flatten_bytes_per_msg", per_msg(d.g.flatten_bytes), "B"});
  ms.push_back({"buf.chunks_allocated_per_msg", per_msg(d.g.chunks_allocated),
                "count"});
  ms.push_back({"buf.chunks_recycled_per_msg", per_msg(d.g.chunks_recycled),
                "count"});
  ms.push_back({"buf.cow_copies_per_msg", per_msg(d.g.cow_copies), "count"});
  return ms;
}

std::array<std::string, kNumNames> span_names() {
  std::array<std::string, kNumNames> n;
  n[kPaSend] = "pa.send";
  n[kClassicSend] = "classic.send";
  n[kPaOnFrame] = "pa.router_on_frame";
  n[kClassicOnFrame] = "classic.router_on_frame";
  n[kSendFrame] = "env.send_frame";
  n[kDeliver] = "env.deliver";
  n[kDefer] = "env.defer";
  n[kDeferred] = "deferred";
  n[kTimer] = "timer";
  n[kLoopPa] = "net.loop_pa_block";
  n[kLoopClassic] = "net.loop_classic_block";
  for (int l = 0; l < kMaxLayers; ++l) {
    for (int p = 0; p < kPhases; ++p) {
      n[kLayerBase + l * kPhases + p] =
          std::string("layers.") + kLayerNames[l] + "." + kPhaseNames[p];
    }
  }
  return n;
}

void print_overhead(const E2E& u, const E2E& t) {
  std::printf("tracing overhead (traced vs untraced, same seed):\n");
  const auto um = e2e_metrics(u), tm = e2e_metrics(t);
  for (std::size_t i = 0; i < um.size(); ++i) {
    std::printf("  %-22s %14.4f -> %14.4f %-6s (%+.1f%%)\n",
                um[i].name.c_str(), um[i].value, tm[i].value,
                um[i].unit.c_str(),
                100.0 * ratio(tm[i].value - um[i].value, um[i].value));
  }
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--spans") {
      o.spans = v;
    } else {
      return false;
    }
  }
  return o.seconds > 0;
}

int run(const Options& opt) {
  const Shape* sh = nullptr;
  for (const Shape& s : kShapes) {
    if (opt.workload == s.name) sh = &s;
  }
  if (!sh) {
    std::fprintf(stderr, "wallbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (sh->loopback) LoopWorld::probe();
  const Payloads pl(opt.seed);
  std::printf("wallbench: workload %s, seed %llu, %.1f s measured\n",
              sh->name, static_cast<unsigned long long>(opt.seed),
              opt.seconds);

  if (!opt.trace) {
    const E2E e = run_instance(*sh, opt, pl, false, opt.seconds, nullptr);
    print_e2e("end-to-end (PA blocks; ratio over block pairs):", e);
    const bool correct = e.failed == 0;
    print_json(correct, e.attempted, e.failed, e2e_metrics(e));
    return correct ? 0 : 1;
  }

  bool check_ok = false;
  const std::size_t frames = self_check(opt, pl, check_ok);
  std::printf("self-check: decorated stack's %zu wire frames %s the plain "
              "stack's\n",
              frames, check_ok ? "byte-identical to" : "DIFFER from");
  bool filter_ok = true;
  const std::vector<FilterTimes> filters = {
      time_filters(64, "64B", filter_ok),
      time_filters(16384, "16KiB", filter_ok)};

  const E2E u =
      run_instance(*sh, opt, pl, false, opt.seconds / 2, nullptr);
  LayerData d;
  const E2E t = run_instance(*sh, opt, pl, true, opt.seconds / 2, &d);
  print_e2e("end-to-end, untraced half:", u);
  print_e2e("end-to-end, traced half:", t);
  print_overhead(u, t);
  const std::vector<Metric> ms = layer_metrics(d, filters);
  std::printf("per-layer (traced half, per PA application message):\n");
  for (const Metric& m : ms) {
    std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool wrote = tracer.write(opt.spans, span_names());
  std::printf("spans: %zu recorded, %s %s\n", tracer.recorded(),
              wrote ? "written to" : "FAILED to write", opt.spans.c_str());
  const std::uint64_t attempted = u.attempted + t.attempted;
  const std::uint64_t failed = u.failed + t.failed;
  const bool correct = failed == 0 && check_ok && filter_ok && wrote;
  print_json(correct, attempted, failed, ms);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wb

int main(int argc, char** argv) {
  wb::Options opt;
  if (!wb::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload rpc|stream|inproc --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  try {
    return wb::run(opt);
  } catch (const wb::Unavailable& e) {
    // No zeros: a later comparison would read them as a huge change.
    std::fprintf(stderr, "wallbench: workload %s unavailable: %s\n",
                 opt.workload.c_str(), e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: workload %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
}
