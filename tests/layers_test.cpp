// Unit + property tests for the canonical protocol layers, driven through a
// small harness (no engines): window, seq, frag, bottom — plus the
// canonical-form property (pre phases never mutate protocol state).
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "filter/interp.h"
#include "horus/stack.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace pa {
namespace {

/// Records everything a layer asks the engine to do.
class FakeOps : public LayerOps {
 public:
  Vt clock = 0;
  std::vector<Message> emitted;
  std::vector<std::function<void(HeaderView&)>> emitted_fill;
  std::vector<Message> resent;
  std::vector<std::function<void(HeaderView&)>> resent_patch;
  std::vector<Message> released;
  struct Timer {
    VtDur delay;
    std::function<void(LayerOps&)> cb;
  };
  std::deque<Timer> timers;
  int send_disables = 0;
  int deliver_disables = 0;

  Vt now() const override { return clock; }
  void emit_down(Message msg, std::function<void(HeaderView&)> fill,
                 bool unusual) override {
    (void)unusual;
    emitted.push_back(std::move(msg));
    emitted_fill.push_back(std::move(fill));
  }
  void resend_raw(const Message& msg,
                  std::function<void(HeaderView&)> patch) override {
    resent.push_back(msg.clone());
    resent_patch.push_back(std::move(patch));
  }
  void release_up(Message msg) override {
    released.push_back(std::move(msg));
  }
  void set_timer(VtDur delay, std::function<void(LayerOps&)> cb) override {
    timers.push_back({delay, std::move(cb)});
  }
  void disable_send() override { ++send_disables; }
  void enable_send() override { --send_disables; }
  void disable_deliver() override { ++deliver_disables; }
  void enable_deliver() override { --deliver_disables; }

  void fire_next_timer() {
    ASSERT_FALSE(timers.empty());
    auto t = std::move(timers.front());
    timers.pop_front();
    t.cb(*this);
  }
};

/// Single-layer harness: one layer + compiled layout + header plumbing.
template <typename L, typename... Args>
struct Rig {
  std::unique_ptr<L> layer;
  LayoutRegistry reg;
  FilterProgram send_prog, recv_prog;
  CompiledLayout cl;
  FakeOps ops;

  explicit Rig(Args... args) : layer(std::make_unique<L>(args...)) {
    reg.set_current_layer(0);
    LayerInit ctx{reg, send_prog, recv_prog, 0};
    layer->init(ctx);
    send_prog.ret(1);
    recv_prog.ret(1);
    send_prog.validate(reg.size());
    recv_prog.validate(reg.size());
    cl = reg.compile(LayoutMode::kCompact);
  }

  std::size_t hdr_bytes() const {
    std::size_t total = 0;
    for (std::size_t c = 0; c < kNumFieldClasses; ++c) total +=
        cl.region_bytes(c);
    return total;
  }

  /// Push a zeroed full header block and return a bound view.
  HeaderView prep(Message& m) {
    std::uint8_t* h = m.push(hdr_bytes());
    std::memset(h, 0, hdr_bytes());
    return bind(m);
  }

  HeaderView bind(Message& m) {
    HeaderView v(&cl, host_endian());
    std::uint8_t* h = m.front();
    std::size_t off = 0;
    for (std::size_t c = 0; c < kNumFieldClasses; ++c) {
      v.set_region(c, h + off);
      off += cl.region_bytes(c);
    }
    return v;
  }

  /// Full send cycle for one message; returns it post-processed.
  Message send(std::vector<std::uint8_t> payload) {
    Message m = Message::with_payload(payload);
    HeaderView v = prep(m);
    EXPECT_EQ(layer->pre_send(m, v), SendVerdict::kOk);
    layer->post_send(m, v, ops);
    return m;
  }

  /// Full deliver cycle; returns the verdict.
  DeliverVerdict deliver(Message m) {
    HeaderView v = bind(m);
    DeliverVerdict verdict = layer->pre_deliver(m, v);
    layer->post_deliver(m, v, verdict, ops);
    return verdict;
  }
};

// ---------------------------------------------------------------------------
// WindowLayer
// ---------------------------------------------------------------------------

using WindowRig = Rig<WindowLayer, WindowConfig>;

TEST(WindowLayer, AssignsSequentialSeqs) {
  WindowRig r{WindowConfig{}};
  Message a = r.send({1});
  Message b = r.send({2});
  EXPECT_EQ(r.bind(a).get(FieldHandle{1}), 0u);  // wseq is field #1
  EXPECT_EQ(r.bind(b).get(FieldHandle{1}), 1u);
  EXPECT_EQ(r.layer->next_seq(), 2u);
  EXPECT_EQ(r.layer->in_flight(), 2u);
}

TEST(WindowLayer, DisablesSendWhenWindowFills) {
  WindowConfig wc;
  wc.size = 3;
  WindowRig r{wc};
  for (int i = 0; i < 3; ++i) r.send({static_cast<std::uint8_t>(i)});
  EXPECT_EQ(r.ops.send_disables, 1);
  EXPECT_EQ(r.layer->stats().window_stalls, 1u);
}

TEST(WindowLayer, RefusesAppMsgBeyondWindowButAllowsProtocol) {
  WindowConfig wc;
  wc.size = 1;
  WindowRig r{wc};
  r.send({1});
  Message m = Message::with_payload(std::vector<std::uint8_t>{2});
  HeaderView v = r.prep(m);
  EXPECT_EQ(r.layer->pre_send(m, v), SendVerdict::kRefuse);
  Message proto = Message::with_payload(std::vector<std::uint8_t>{3});
  proto.cb.protocol = true;
  HeaderView v2 = r.prep(proto);
  EXPECT_EQ(r.layer->pre_send(proto, v2), SendVerdict::kOk);
}

TEST(WindowLayer, AckSlidesWindowAndReenables) {
  WindowConfig wc;
  wc.size = 2;
  WindowRig r{wc};
  r.send({1});
  r.send({2});
  ASSERT_EQ(r.ops.send_disables, 1);

  // Deliver a pure-ack message acknowledging both.
  Message ack;
  HeaderView v = r.prep(ack);
  v.set(FieldHandle{0}, 1);  // wtype = kAck
  v.set(FieldHandle{3}, 2);  // wack = 2 (gossip)
  EXPECT_EQ(r.deliver(std::move(ack)), DeliverVerdict::kConsume);
  EXPECT_EQ(r.ops.send_disables, 0);
  EXPECT_EQ(r.layer->in_flight(), 0u);
  EXPECT_EQ(r.layer->stats().acks_received, 1u);
}

TEST(WindowLayer, InOrderDataDelivers) {
  WindowRig r{WindowConfig{}};
  Message m;
  HeaderView v = r.prep(m);
  v.set(FieldHandle{0}, 0);  // DATA
  v.set(FieldHandle{1}, 0);  // seq 0 == expected
  EXPECT_EQ(r.deliver(std::move(m)), DeliverVerdict::kDeliver);
  EXPECT_EQ(r.layer->expected_seq(), 1u);
}

TEST(WindowLayer, OutOfOrderStashesAndReleases) {
  WindowRig r{WindowConfig{}};
  Message m2;
  {
    HeaderView v = r.prep(m2);
    v.set(FieldHandle{1}, 1);  // seq 1, expected 0
  }
  EXPECT_EQ(r.deliver(std::move(m2)), DeliverVerdict::kConsume);
  EXPECT_EQ(r.layer->stats().stashed, 1u);
  EXPECT_TRUE(r.ops.released.empty());

  Message m1;
  {
    HeaderView v = r.prep(m1);
    v.set(FieldHandle{1}, 0);
  }
  EXPECT_EQ(r.deliver(std::move(m1)), DeliverVerdict::kDeliver);
  // Stash drained: seq 1 released upward.
  EXPECT_EQ(r.ops.released.size(), 1u);
  EXPECT_EQ(r.layer->expected_seq(), 2u);
}

TEST(WindowLayer, DuplicateDropsAndForcesAck) {
  WindowRig r{WindowConfig{}};
  Message m;
  {
    HeaderView v = r.prep(m);
    v.set(FieldHandle{1}, 0);
  }
  r.deliver(std::move(m));
  Message dup;
  {
    HeaderView v = r.prep(dup);
    v.set(FieldHandle{1}, 0);  // seq 0 again
  }
  EXPECT_EQ(r.deliver(std::move(dup)), DeliverVerdict::kDrop);
  EXPECT_EQ(r.layer->stats().duplicates, 1u);
  // Duplicate means our ack was lost: an ack must have been emitted.
  EXPECT_GE(r.layer->stats().acks_sent, 1u);
}

TEST(WindowLayer, RtoRetransmitsUnacked) {
  WindowRig r{WindowConfig{}};
  r.send({42});
  ASSERT_FALSE(r.ops.timers.empty());
  // The timeout is measured from the head's send time: firing early must
  // only re-arm, not retransmit.
  r.ops.fire_next_timer();
  EXPECT_TRUE(r.ops.resent.empty());
  ASSERT_FALSE(r.ops.timers.empty());
  r.ops.clock = WindowConfig{}.rto + vt_ms(1);  // now the head is overdue
  r.ops.fire_next_timer();
  ASSERT_EQ(r.ops.resent.size(), 1u);
  EXPECT_EQ(r.layer->stats().retransmits, 1u);
  // The patch must set the retransmission bit.
  Message& copy = r.ops.resent[0];
  HeaderView v = r.bind(copy);
  r.ops.resent_patch[0](v);
  EXPECT_EQ(v.get(FieldHandle{2}), 1u);  // wrex
  // Timer re-armed while unacked remain.
  EXPECT_FALSE(r.ops.timers.empty());
}

TEST(WindowLayer, AckTimerEmitsStandaloneAck) {
  WindowConfig wc;
  wc.ack_every = 100;  // prevent immediate ack
  WindowRig r{wc};
  Message m;
  {
    HeaderView v = r.prep(m);
    v.set(FieldHandle{1}, 0);
  }
  r.deliver(std::move(m));
  ASSERT_FALSE(r.ops.timers.empty());
  r.ops.fire_next_timer();
  ASSERT_EQ(r.ops.emitted.size(), 1u);
  // Apply the fill to a scratch header: type must be ACK with our expected.
  Message scratch;
  HeaderView v = r.prep(scratch);
  r.ops.emitted_fill[0](v);
  EXPECT_EQ(v.get(FieldHandle{0}), 1u);  // kAck
  EXPECT_EQ(v.get(FieldHandle{3}), 1u);  // wack = expected(1)
}

TEST(WindowLayer, FastRetransmitOnTripleDupAck) {
  WindowRig r{WindowConfig{}};
  r.send({42});
  // Three standalone acks that do not advance the window => the head is
  // resent immediately, without waiting for the RTO.
  for (int i = 0; i < 3; ++i) {
    Message ack;
    HeaderView v = r.prep(ack);
    v.set(FieldHandle{0}, 1);  // wtype = kAck
    v.set(FieldHandle{3}, 0);  // wack == base: no progress
    r.deliver(std::move(ack));
  }
  EXPECT_EQ(r.layer->stats().fast_retransmits, 1u);
  ASSERT_EQ(r.ops.resent.size(), 1u);
  // Further dup acks must not re-fire until the window advances.
  for (int i = 0; i < 5; ++i) {
    Message ack;
    HeaderView v = r.prep(ack);
    v.set(FieldHandle{0}, 1);
    v.set(FieldHandle{3}, 0);
    r.deliver(std::move(ack));
  }
  EXPECT_EQ(r.layer->stats().fast_retransmits, 1u);
  // Progress re-arms fast retransmit.
  Message good;
  {
    HeaderView v = r.prep(good);
    v.set(FieldHandle{0}, 1);
    v.set(FieldHandle{3}, 1);  // acks seq 0
  }
  r.deliver(std::move(good));
  EXPECT_EQ(r.layer->in_flight(), 0u);
}

TEST(WindowLayer, FastRetransmitDisabledByConfig) {
  WindowConfig wc;
  wc.fast_retransmit = false;
  WindowRig r{wc};
  r.send({42});
  for (int i = 0; i < 5; ++i) {
    Message ack;
    HeaderView v = r.prep(ack);
    v.set(FieldHandle{0}, 1);
    v.set(FieldHandle{3}, 0);
    r.deliver(std::move(ack));
  }
  EXPECT_EQ(r.layer->stats().fast_retransmits, 0u);
  EXPECT_TRUE(r.ops.resent.empty());
}

TEST(WindowLayer, PredictionsTrackState) {
  WindowRig r{WindowConfig{}};
  r.send({1});
  Message scratch;
  HeaderView v = r.prep(scratch);
  r.layer->predict_send(v);
  EXPECT_EQ(v.get(FieldHandle{1}), 1u);  // next send seq
  r.layer->predict_deliver(v);
  EXPECT_EQ(v.get(FieldHandle{1}), 0u);  // next expected
}

TEST(WindowLayer, StaleAckIgnored) {
  WindowRig r{WindowConfig{}};
  r.send({1});
  r.send({2});
  Message ack;
  {
    HeaderView v = r.prep(ack);
    v.set(FieldHandle{0}, 1);
    v.set(FieldHandle{3}, 1);  // ack 1
  }
  r.deliver(std::move(ack));
  EXPECT_EQ(r.layer->in_flight(), 1u);
  Message stale;
  {
    HeaderView v = r.prep(stale);
    v.set(FieldHandle{0}, 1);
    v.set(FieldHandle{3}, 0);  // stale gossip: ack 0
  }
  r.deliver(std::move(stale));
  EXPECT_EQ(r.layer->in_flight(), 1u);  // unchanged, not rewound
}

TEST(WindowLayer, SackBitmapReflectsStash) {
  WindowConfig wc;
  wc.selective_ack = true;
  WindowRig r{wc};
  // Receive seqs 2, 4, 5 out of order (expected 0): bitmap bits are
  // relative to expected+1, so bit1 (seq2), bit3 (seq4), bit4 (seq5).
  for (std::uint32_t s : {2u, 4u, 5u}) {
    Message m;
    HeaderView v = r.prep(m);
    v.set(FieldHandle{1}, s);
    r.deliver(std::move(m));
  }
  Message scratch;
  HeaderView v = r.prep(scratch);
  r.layer->predict_send(v);
  // fields: 0 wtype, 1 wseq, 2 wrex, 3 wack, 4 wsack, 5 wsize
  EXPECT_EQ(v.get(FieldHandle{3}), 0u);  // cumulative unchanged
  EXPECT_EQ(v.get(FieldHandle{4}), (1u << 1) | (1u << 3) | (1u << 4));
}

TEST(WindowLayer, SackMarksSentEntries) {
  WindowConfig wc;
  wc.selective_ack = true;
  WindowRig r{wc};
  for (int i = 0; i < 4; ++i) r.send({static_cast<std::uint8_t>(i)});
  // Peer acks nothing cumulatively but sacks seqs 1 and 3.
  Message ack;
  HeaderView v = r.prep(ack);
  v.set(FieldHandle{0}, 1);                    // kAck
  v.set(FieldHandle{3}, 0);                    // wack = 0 (no progress)
  v.set(FieldHandle{4}, (1u << 0) | (1u << 2));  // seqs 1 and 3
  // Two more identical dup acks trigger fast retransmit of the holes
  // below the highest sacked seq: only seqs 0 and 2.
  r.deliver(ack.clone());
  r.deliver(ack.clone());
  r.deliver(std::move(ack));
  EXPECT_EQ(r.layer->stats().fast_retransmits, 2u);
  ASSERT_EQ(r.ops.resent.size(), 2u);
}

// The sent buffer is a ring indexed by `seq - base`. Crossing 2^32, and
// growing while its head is mid-ring, must not move which entries a SACK
// marks or a fast retransmit resends.
TEST(WindowLayer, SackFastRetransmitAcrossSeqWrap) {
  WindowConfig wc;
  wc.size = 4;
  wc.selective_ack = true;
  wc.initial_seq = 0xfffffffeu;
  WindowRig r{wc};
  // seqs 0xfffffffe, 0xffffffff, 0, 1: the window is full.
  for (int i = 0; i < 4; ++i) r.send({static_cast<std::uint8_t>(i)});
  r.ops.clock = vt_us(700);
  // The peer acks 0xfffffffe and sacks 1 and 3 (bit i <=> seq ack+1+i).
  Message ack;
  {
    HeaderView v = r.prep(ack);
    v.set(FieldHandle{0}, 1);                      // kAck
    v.set(FieldHandle{3}, 0xffffffffu);            // wack
    v.set(FieldHandle{4}, (1u << 1) | (1u << 3));  // seqs 1 and 3
  }
  // The advancing ack counts as the first of three non-advancing ones.
  r.deliver(ack.clone());
  // seq 2 refills the window; seq 3 is a protocol message of a layer
  // above, which the window does not flow-control, so the ring grows.
  r.send({4});
  {
    const std::vector<std::uint8_t> five{5};
    Message m = Message::with_payload(five);
    m.cb.protocol = true;
    HeaderView v = r.prep(m);
    ASSERT_EQ(r.layer->pre_send(m, v), SendVerdict::kOk);
    r.layer->post_send(m, v, r.ops);
  }
  ASSERT_EQ(r.layer->in_flight(), 5u);
  r.deliver(ack.clone());
  EXPECT_TRUE(r.ops.resent.empty());
  r.deliver(std::move(ack));
  // Holes below the highest sacked seq (3), skipping sacked 1.
  std::vector<std::uint64_t> resent;
  for (Message& m : r.ops.resent) {
    resent.push_back(r.bind(m).get(FieldHandle{1}));
  }
  EXPECT_EQ(resent, (std::vector<std::uint64_t>{0xffffffffu, 0, 2}));
  EXPECT_EQ(r.layer->stats().fast_retransmits, 3u);
  // Pinned from a std::map keyed by seq: an indexing error changes it.
  EXPECT_EQ(r.layer->state_digest(), 11121070074855199779ull);
  // A cumulative ack past the wrap drains the window.
  Message all;
  {
    HeaderView v = r.prep(all);
    v.set(FieldHandle{0}, 1);
    v.set(FieldHandle{3}, 4);
  }
  r.deliver(std::move(all));
  EXPECT_EQ(r.layer->in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// SeqLayer
// ---------------------------------------------------------------------------

using SeqRig = Rig<SeqLayer>;

TEST(SeqLayer, OrdersOutOfOrderDeliveries) {
  SeqRig r;
  auto mk = [&](std::uint32_t seq) {
    Message m;
    HeaderView v = r.prep(m);
    v.set(FieldHandle{0}, seq);
    return m;
  };
  EXPECT_EQ(r.deliver(mk(2)), DeliverVerdict::kConsume);
  EXPECT_EQ(r.deliver(mk(1)), DeliverVerdict::kConsume);
  EXPECT_EQ(r.deliver(mk(0)), DeliverVerdict::kDeliver);
  EXPECT_EQ(r.ops.released.size(), 2u);  // 1 and 2 released in order
  EXPECT_EQ(r.layer->expected_in(), 3u);
}

TEST(SeqLayer, DropsStaleSeq) {
  SeqRig r;
  Message m;
  {
    HeaderView v = r.prep(m);
    v.set(FieldHandle{0}, 0);
  }
  r.deliver(std::move(m));
  Message dup;
  {
    HeaderView v = r.prep(dup);
    v.set(FieldHandle{0}, 0);
  }
  EXPECT_EQ(r.deliver(std::move(dup)), DeliverVerdict::kDrop);
  EXPECT_EQ(r.layer->stats().dropped, 1u);
}

TEST(SeqLayer, SendNumbersSequentially) {
  SeqRig r;
  Message a = r.send({1});
  Message b = r.send({2});
  EXPECT_EQ(r.bind(a).get(FieldHandle{0}), 0u);
  EXPECT_EQ(r.bind(b).get(FieldHandle{0}), 1u);
}

// ---------------------------------------------------------------------------
// FragLayer
// ---------------------------------------------------------------------------

using FragRig = Rig<FragLayer, FragConfig>;

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(FragLayer, SmallMessagesPassUntouched) {
  FragRig r{FragConfig{100}};
  Message m = Message::with_payload(pattern(100));
  EXPECT_TRUE(r.layer->transform_send(m).empty());
}

TEST(FragLayer, SplitsAndMarks) {
  FragRig r{FragConfig{100}};
  Message m = Message::with_payload(pattern(250));
  auto frags = r.layer->transform_send(m);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].payload_len(), 100u);
  EXPECT_EQ(frags[2].payload_len(), 50u);
  EXPECT_TRUE(frags[0].cb.is_frag);
  EXPECT_FALSE(frags[0].cb.frag_last);
  EXPECT_TRUE(frags[2].cb.frag_last);
  EXPECT_EQ(frags[1].cb.frag_index, 1);
}

TEST(FragLayer, ReassemblesInAnyOrder) {
  FragRig r{FragConfig{100}};
  Message m = Message::with_payload(pattern(250));
  auto frags = r.layer->transform_send(m);

  // Write headers as pre_send would, then deliver out of order.
  std::vector<Message> wire;
  for (auto& f : frags) {
    HeaderView v = r.prep(f);
    EXPECT_EQ(r.layer->pre_send(f, v), SendVerdict::kOk);
    wire.push_back(std::move(f));
  }
  std::swap(wire[0], wire[2]);
  for (auto& f : wire) {
    EXPECT_EQ(r.deliver(std::move(f)), DeliverVerdict::kConsume);
  }
  ASSERT_EQ(r.ops.released.size(), 1u);
  auto got = r.ops.released[0].payload();
  auto want = pattern(250);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));
  EXPECT_EQ(r.layer->pending_reassemblies(), 0u);
}

std::int64_t run_filter_result(FragRig& r, Message& m) {
  if (m.header_len() == 0) r.prep(m);
  HeaderView v = r.bind(m);
  return run_filter(r.send_prog, v, m);
}

TEST(FragLayer, SendFilterRejectsOversize) {
  FragRig r{FragConfig{100}};
  Message small = Message::with_payload(pattern(50));
  Message big = Message::with_payload(pattern(150));
  EXPECT_EQ(run_filter_result(r, small), 1);
  EXPECT_EQ(run_filter_result(r, big), 0);
}

// ---------------------------------------------------------------------------
// BottomLayer
// ---------------------------------------------------------------------------

BottomConfig bottom_cfg() {
  BottomConfig c;
  c.local.words = {1, 2, 3, 4};
  c.remote.words = {5, 6, 7, 8};
  c.group = 99;
  return c;
}

using BottomRig = Rig<BottomLayer, BottomConfig>;

TEST(BottomLayer, PreSendWritesLengthAndChecksum) {
  BottomRig r{bottom_cfg()};
  auto payload = pattern(10);
  Message m = Message::with_payload(payload);
  HeaderView v = r.prep(m);
  EXPECT_EQ(r.layer->pre_send(m, v), SendVerdict::kOk);
  // handles: 0..7 src/dst, 8 group, 9 version, 10 len, 11 cksum
  EXPECT_EQ(v.get(FieldHandle{10}), 10u);
  EXPECT_EQ(v.get(FieldHandle{11}), crc32c(payload));
}

TEST(BottomLayer, PreDeliverDropsCorruption) {
  BottomRig r{bottom_cfg()};
  auto payload = pattern(10);
  Message m = Message::with_payload(payload);
  HeaderView v = r.prep(m);
  r.layer->pre_send(m, v);
  EXPECT_EQ(r.layer->pre_deliver(m, v), DeliverVerdict::kDeliver);
  // Payload bytes are frozen after ingest: model in-flight corruption with a
  // second message whose payload differs, checked against m's header fields.
  payload[0] ^= 0xff;
  Message bad = Message::with_payload(payload);
  EXPECT_EQ(r.layer->pre_deliver(bad, v), DeliverVerdict::kDrop);
}

TEST(BottomLayer, ConnIdentRoundTrip) {
  BottomRig r{bottom_cfg()};
  Message m;
  HeaderView v = r.prep(m);
  // Outgoing from our side...
  r.layer->write_conn_ident(v, /*incoming=*/false);
  // ...does NOT match what we expect to receive (src/dst mirrored):
  EXPECT_FALSE(r.layer->match_conn_ident(v));
  // The peer's outgoing view (our incoming expectation) matches:
  r.layer->write_conn_ident(v, /*incoming=*/true);
  EXPECT_TRUE(r.layer->match_conn_ident(v));
}

// ---------------------------------------------------------------------------
// Canonical-form property (paper §3.1): pre phases never mutate layer state.
// ---------------------------------------------------------------------------

class CanonicalForm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CanonicalForm, PrePhasesDoNotMutateState) {
  Rng rng(GetParam());
  // A full standard stack, poked with random messages.
  Stack s{StackSpec::paper()};
  s.init();
  auto cl = s.registry().compile(LayoutMode::kCompact);
  std::size_t hdr = 0;
  for (std::size_t c = 0; c < kNumFieldClasses; ++c) {
    hdr += cl.region_bytes(c);
  }

  for (int round = 0; round < 30; ++round) {
    std::vector<std::uint8_t> payload(rng.next_below(64));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    Message m = Message::with_payload(payload);
    std::uint8_t* h = m.push(hdr);
    // Random header bytes: layers must *check*, not *change state on*.
    for (std::size_t i = 0; i < hdr; ++i) {
      h[i] = static_cast<std::uint8_t>(rng.next());
    }
    HeaderView v(&cl, host_endian());
    std::size_t off = 0;
    for (std::size_t c = 0; c < kNumFieldClasses; ++c) {
      v.set_region(c, h + off);
      off += cl.region_bytes(c);
    }

    for (std::size_t i = 0; i < s.size(); ++i) {
      std::uint64_t before = s.layer(i).state_digest();
      if (rng.chance(0.5)) {
        (void)s.layer(i).pre_send(m, v);
      } else {
        (void)s.layer(i).pre_deliver(m, v);
      }
      EXPECT_EQ(s.layer(i).state_digest(), before)
          << s.layer(i).name() << " mutated state in a pre phase";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalForm,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace pa
