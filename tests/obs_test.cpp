// Tests for the unified observability layer (src/obs/): histogram bucket
// geometry and percentile math, trace-ring wrap-around, exporter output
// (Prometheus text, Chrome trace JSON, the normalized report format),
// per-layer stack binding, and the docs/OBSERVABILITY.md catalog — every
// metric the system can export must be documented there, and every stat it
// documents must be exported.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "forwarding_layer.h"
#include "horus/report.h"
#include "horus/stack.h"
#include "horus/stack_spec.h"
#include "horus/world.h"
#include "obs/bridge.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "group/mcast.h"
#include "health/plane.h"
#include "layers/window_layer.h"
#include "obs/trace_ring.h"
#include "pa/accelerator.h"
#include "resil/governor.h"

namespace pa::obs {
namespace {

using Hist = LatencyHistogram;

// ---------------------------------------------------------------------------
// LatencyHistogram: bucket geometry

TEST(Histogram, UnitBucketsAreExact) {
  for (std::uint64_t v = 0; v < Hist::kSub; ++v) {
    const std::size_t idx = Hist::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(Hist::bucket_floor(idx), v);
    EXPECT_EQ(Hist::bucket_mid(idx), v);
  }
}

TEST(Histogram, BucketFloorIsFixpointOfIndex) {
  // Every bucket's floor must map back to that bucket, and floors must be
  // strictly increasing — together these pin down the whole geometry.
  std::uint64_t prev = 0;
  for (std::size_t idx = 0; idx < Hist::kBuckets; ++idx) {
    const std::uint64_t floor = Hist::bucket_floor(idx);
    if (idx > 0) {
      EXPECT_GT(floor, prev) << "bucket " << idx;
    }
    prev = floor;
    if (floor == 0 && idx > 0) break;  // past the top of the u64 range
    EXPECT_EQ(Hist::bucket_index(floor), idx) << "bucket " << idx;
  }
}

TEST(Histogram, RepresentativeValueWithinRelativeErrorBound) {
  // The documented contract: any reported value is within 6.25% (one
  // sub-bucket) of the recorded sample. Sweep a few decades of values.
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 10'000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = (lcg >> 20) % 1'000'000'000ull;
    const std::uint64_t mid = Hist::bucket_mid(Hist::bucket_index(v));
    const double err = v < mid ? double(mid - v) : double(v - mid);
    EXPECT_LE(err, static_cast<double>(v) * 0.0625 + 0.5)
        << "v=" << v << " mid=" << mid;
  }
}

// ---------------------------------------------------------------------------
// LatencyHistogram: percentile math

TEST(Histogram, PercentilesExactInUnitRange) {
  Hist h;
  for (std::uint64_t v = 1; v <= 4; ++v) h.record(v);  // 1,2,3,4
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  // 1-based ceiling rank: p50 of four samples is the 2nd, p75 the 3rd.
  EXPECT_EQ(h.percentile(0.5), 2u);
  EXPECT_EQ(h.percentile(0.75), 3u);
  EXPECT_EQ(h.percentile(0.99), 4u);
  EXPECT_EQ(h.percentile(1.0), 4u);
  EXPECT_EQ(h.percentile(0.0), 1u);  // rank clamps up to the first sample
}

TEST(Histogram, PercentilesOnUniformDistribution) {
  Hist h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.record(v);
  // Above the unit buckets percentiles are bucket representatives: within
  // the 6.25% geometric error of the true order statistic.
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50'000.0,
              50'000.0 * 0.0625);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.99)), 99'000.0,
              99'000.0 * 0.0625);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.999)), 99'900.0,
              99'900.0 * 0.0625);
  EXPECT_DOUBLE_EQ(h.mean(), 50'000.5);  // sum is tracked exactly
}

TEST(Histogram, EmptyAndReset) {
  Hist h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.percentile(0.99), 0u);
}

TEST(Histogram, MergeEqualsRecordingEverySample) {
  // Three parts with different spreads (unit buckets, mid octaves, a long
  // tail); the merge must read exactly like one histogram that saw them all.
  Hist parts[3];
  Hist all;
  std::uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = (x >> 33) % (i % 3 == 0 ? 16u : i % 3 == 1
                                                      ? 50'000u
                                                      : 40'000'000u);
    parts[i % 3].record(v);
    all.record(v);
  }
  Hist merged;
  for (const Hist& h : parts) merged.merge(h);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  for (double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.percentile(p), all.percentile(p)) << "p=" << p;
  }
  EXPECT_EQ(merged.snapshot().nonzero, all.snapshot().nonzero);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Registry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "first help");
  Counter& b = reg.counter("x_total", "second registration ignored");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].help, "first help");
}

TEST(Registry, ReadThroughMetricsSampleAtCollectTime) {
  MetricsRegistry reg;
  std::uint64_t source = 5;
  reg.counter_fn("src_total", "live source", "",
                 [&source] { return static_cast<double>(source); });
  EXPECT_DOUBLE_EQ(reg.collect()[0].value, 5.0);
  source = 9;
  EXPECT_DOUBLE_EQ(reg.collect()[0].value, 9.0);
}

TEST(Registry, ReadThroughNameBindsOnce) {
  MetricsRegistry reg;
  std::uint64_t first = 1, second = 4;
  reg.counter_fn("src_total", "first", "",
                 [&first] { return static_cast<double>(first); });
  EXPECT_THROW(reg.counter_fn("src_total", "second", "",
                              [&second] {
                                return static_cast<double>(second);
                              }),
               std::invalid_argument);
  EXPECT_THROW(reg.gauge_fn("src_total", "second", "", [] { return 0.0; }),
               std::invalid_argument);
  // An owned metric cannot take over a read-through name, or the reverse.
  EXPECT_THROW(reg.counter("src_total", "owned"), std::invalid_argument);
  reg.gauge("level", "owned gauge");
  EXPECT_THROW(reg.gauge_fn("level", "read-through", "", [] { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("level", "histogram"), std::invalid_argument);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
}

TEST(Registry, MetricSlug) {
  EXPECT_EQ(metric_slug("stale cookie epoch"), "stale_cookie_epoch");
  EXPECT_EQ(metric_slug("Recv-ring overflow!"), "recv_ring_overflow");
  EXPECT_EQ(metric_slug("  already_ok  "), "already_ok");
}

// ---------------------------------------------------------------------------
// Stack binding

// A decorator that forwards every call but bind_stats() to the WindowLayer
// it owns, as a timing wrapper does: by kind and name it looks like a
// window layer, yet it is not a WindowLayer object.
class WrappedWindow final : public ForwardingLayer {
 public:
  using ForwardingLayer::ForwardingLayer;
};

TEST(StackBinding, WrapperWithAWindowKindIsNotBoundAsAWindow) {
  StackSpec spec = StackSpec::paper();
  *spec.find(LayerSpec::Type::kWindow) = LayerSpec::custom([] {
    return std::make_unique<WrappedWindow>(
        std::make_unique<WindowLayer>(WindowConfig{}));
  });
  Stack stack{spec};
  ASSERT_EQ(stack.find(LayerKind::kWindow)->name(), "window");

  MetricsRegistry reg;
  bind_stack_stats(reg, stack);
  bool bottom_bound = false;
  for (const MetricSample& m : reg.collect()) {
    EXPECT_NE(m.name.rfind("pa_stack_window", 0), 0u)
        << "`" << m.name << "` read the wrapper as a WindowLayer";
    bottom_bound |= m.name == "pa_stack_bottom_sent_total";
  }
  EXPECT_TRUE(bottom_bound) << "the layers around the wrapper still bind";
}

// ---------------------------------------------------------------------------
// TraceRing

TEST(TraceRing, WrapKeepsMostRecentEvents) {
  TraceRing ring(8);
  for (std::int64_t i = 0; i < 20; ++i) {
    ring.record(SpanKind::kSendFast, i, 1, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  // A wrapped ring holds exactly its last capacity() events.
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), ring.capacity());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].ts, static_cast<std::int64_t>(12 + i));  // oldest first
    EXPECT_EQ(snap[i].arg, static_cast<std::uint32_t>(12 + i));
  }
}

TEST(TraceRing, SpanRespectsEnableFlag) {
  TraceRing& ring = process_ring();
  const bool was = trace_enabled();
  const std::uint64_t before = ring.recorded();
  set_trace_enabled(false);
  span(SpanKind::kTimerFire, 1);
  EXPECT_EQ(ring.recorded(), before);
  set_trace_enabled(true);
  span(SpanKind::kTimerFire, 2);
  EXPECT_EQ(ring.recorded(), before + 1);
  set_trace_enabled(was);
}

// ---------------------------------------------------------------------------
// Phase timing: every call under the simulator's virtual clock, one in
// kPhaseSampleEvery on any other clock. The counters stay exact.

std::uint64_t phase_samples(const std::string& name) {
  for (const MetricSample& s : registry().collect()) {
    if (s.name == name && s.hist != nullptr) return s.hist->count();
  }
  return 0;  // not registered yet: no engine has timed a phase
}

TEST(PhaseTiming, VirtualClockTimesEveryMessage) {
  const std::uint64_t sends0 = phase_samples("pa_send_fast_ns");
  const std::uint64_t delivers0 = phase_samples("pa_deliver_fast_ns");
  World w;
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  auto [src, dst] = w.connect(a, b, ConnOptions{});
  for (int i = 0; i < 100; ++i) src->send(std::vector<std::uint8_t>(64, 1));
  w.run();
  ASSERT_EQ(dst->received(), 100u);

  const EngineStats& s = src->engine().stats();
  const EngineStats& d = dst->engine().stats();
  ASSERT_GT(s.fast_sends + d.fast_sends, 0u);
  ASSERT_GT(s.fast_delivers + d.fast_delivers, 0u);
  EXPECT_EQ(phase_samples("pa_send_fast_ns") - sends0,
            s.fast_sends + d.fast_sends);
  EXPECT_EQ(phase_samples("pa_deliver_fast_ns") - delivers0,
            s.fast_delivers + d.fast_delivers);
}

// Spans of `kind` tagged `owner` among those recorded since `since`
// (process_ring().recorded() at the start).
std::uint64_t fresh_spans(std::uint64_t since, SpanKind kind,
                          std::uint16_t owner) {
  const auto snap = process_ring().snapshot();
  const std::uint64_t fresh = process_ring().recorded() - since;
  EXPECT_LE(fresh, snap.size());
  std::uint64_t n = 0;
  for (std::size_t i = snap.size() - fresh; i < snap.size(); ++i) {
    n += static_cast<SpanKind>(snap[i].kind) == kind && snap[i].owner == owner;
  }
  return n;
}

TEST(PhaseTiming, ClassicSpansCarryTheirOwnOwnerUnderTheSimulator) {
  WorldConfig wc;
  wc.gc_policy = GcPolicy::kEveryReception;
  World w(wc);
  auto& a = w.add_node("a");
  auto& b = w.add_node("b");
  ConnOptions opt;
  opt.use_pa = false;
  auto [src, dst] = w.connect(a, b, opt);
  dst->on_deliver([d = dst](std::span<const std::uint8_t> p) { d->send(p); });
  const bool was = trace_enabled();
  set_trace_enabled(true);
  const std::uint64_t spans0 = process_ring().recorded();
  src->send(std::vector<std::uint8_t>(8, 3));
  w.run();
  set_trace_enabled(was);

  ASSERT_EQ(src->received(), 1u);
  const std::set<std::uint16_t> owners{src->engine().obs_id(),
                                       dst->engine().obs_id()};
  ASSERT_EQ(owners.size(), 2u);
  const auto snap = process_ring().snapshot();
  const std::uint64_t fresh = process_ring().recorded() - spans0;
  ASSERT_LE(fresh, snap.size());
  for (std::size_t i = snap.size() - fresh; i < snap.size(); ++i) {
    EXPECT_EQ(owners.count(snap[i].owner), 1u)
        << span_kind_name(static_cast<SpanKind>(snap[i].kind));
  }
  // Under a virtual clock every call is timed: the spans account for every
  // frame and every hand-up, each under the engine that did it.
  for (Endpoint* ep : {src, dst}) {
    const std::uint16_t id = ep->engine().obs_id();
    const EngineStats& st = ep->engine().stats();
    EXPECT_EQ(fresh_spans(spans0, SpanKind::kSendSlow, id) +
                  fresh_spans(spans0, SpanKind::kSendProto, id),
              st.frames_out);
    EXPECT_EQ(fresh_spans(spans0, SpanKind::kDeliverSlow, id), st.frames_in);
    EXPECT_EQ(fresh_spans(spans0, SpanKind::kDeliverApp, id),
              st.delivered_to_app);
    EXPECT_GT(fresh_spans(spans0, SpanKind::kGcPause, id), 0u);
  }
}

// A steady-clock Env whose deferred work the test runs after each send;
// frames go nowhere. It keeps Env's default clock_is_virtual() (false).
class SteadyEnv final : public Env {
 public:
  Vt now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void charge(VtDur) override {}
  void send_frame(std::vector<std::uint8_t>) override {}
  void send_frame(WireFrame) override {}
  void deliver(std::span<const std::uint8_t>) override {}
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void set_timer(VtDur, std::function<void()>) override {}
  void on_alloc(std::size_t) override {}
  void on_reception() override {}
  void gc_point() override {}

  void drain() {
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      std::function<void()> fn = std::move(deferred[i]);
      fn();
    }
    deferred.clear();
  }

  std::vector<std::function<void()>> deferred;
};

TEST(PhaseTiming, WallClockTimesOneMessageInSixteen) {
  // A bare bottom layer has no window: every send takes the fast path.
  PaConfig cfg;
  cfg.stack.spec = StackSpec{}.add(LayerSpec::bottom_layer({}));
  SteadyEnv env;
  PaEngine e(cfg, env);

  const std::uint64_t sends0 = phase_samples("pa_send_fast_ns");
  const std::uint64_t posts0 = phase_samples("pa_post_send_ns");
  const std::uint64_t spans0 = process_ring().recorded();
  const bool was = trace_enabled();
  set_trace_enabled(true);
  constexpr std::uint64_t kSends = 10 * kPhaseSampleEvery;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    e.send(std::vector<std::uint8_t>(64, 2));
    env.drain();
  }
  set_trace_enabled(was);

  EXPECT_EQ(e.stats().fast_sends, kSends);
  EXPECT_EQ(e.stats().frames_out, kSends);
  EXPECT_EQ(phase_samples("pa_send_fast_ns") - sends0, 10u);
  EXPECT_EQ(phase_samples("pa_post_send_ns") - posts0, 10u);
  // Untimed calls emit no phase span either.
  const auto snap = process_ring().snapshot();
  const std::uint64_t fresh = process_ring().recorded() - spans0;
  ASSERT_LE(fresh, snap.size());
  std::uint64_t send_spans = 0, post_spans = 0;
  for (std::size_t i = snap.size() - fresh; i < snap.size(); ++i) {
    const auto k = static_cast<SpanKind>(snap[i].kind);
    send_spans += k == SpanKind::kSendFast;
    post_spans += k == SpanKind::kPostSend;
  }
  EXPECT_EQ(send_spans, 10u);
  EXPECT_EQ(post_spans, 10u);

  // The classic engine samples by the same rule: 10 send spans in 160
  // sends, under its own owner.
  ClassicConfig ccfg;
  ccfg.stack = cfg.stack;
  SteadyEnv cenv;
  ClassicEngine ce(ccfg, cenv);
  const std::uint64_t cspans0 = process_ring().recorded();
  set_trace_enabled(true);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    ce.send(std::vector<std::uint8_t>(64, 2));
    cenv.drain();
  }
  set_trace_enabled(was);
  EXPECT_EQ(ce.stats().frames_out, kSends);
  EXPECT_EQ(fresh_spans(cspans0, SpanKind::kSendSlow, ce.obs_id()), 10u);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Export, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("test_events_total", "events seen").inc(3);
  reg.gauge("test_depth", "queue depth", "msgs").set(7);
  Hist& h = reg.histogram("test_lat_ns", "latency", "ns");
  for (std::uint64_t v = 1; v <= 4; ++v) h.record(v);

  EXPECT_EQ(prometheus_text(reg),
            "# HELP test_events_total events seen\n"
            "# TYPE test_events_total counter\n"
            "test_events_total 3\n"
            "# HELP test_depth queue depth (msgs)\n"
            "# TYPE test_depth gauge\n"
            "test_depth 7\n"
            "# HELP test_lat_ns latency (ns)\n"
            "# TYPE test_lat_ns summary\n"
            "test_lat_ns{quantile=\"0.5\"} 2\n"
            "test_lat_ns{quantile=\"0.99\"} 4\n"
            "test_lat_ns{quantile=\"0.999\"} 4\n"
            "test_lat_ns_count 4\n"
            "test_lat_ns_sum 10\n");
}

TEST(Export, ReportSuppressesZerosAndFormatsHistograms) {
  MetricsRegistry reg;
  reg.counter("seen_total", "things that happened").inc(2);
  reg.counter("unseen_total", "things that did not");
  reg.histogram("empty_ns", "never recorded", "ns");
  EXPECT_EQ(render_report(reg, "demo"),
            "demo:\n  seen_total 2  # things that happened\n");

  Hist& h = reg.histogram("lat_ns", "observed latency", "ns");
  for (std::uint64_t v = 1; v <= 4; ++v) h.record(v);
  EXPECT_EQ(render_report(reg, "demo"),
            "demo:\n"
            "  seen_total 2  # things that happened\n"
            "  lat_ns n=4 mean=2 p50=2 p99=4 p999=4  # observed latency "
            "(ns)\n");
}

// Minimal structural JSON check: balanced delimiters outside strings.
void expect_balanced_json(const std::string& s) {
  int curly = 0, square = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++curly;
    else if (c == '}') --curly;
    else if (c == '[') ++square;
    else if (c == ']') --square;
    EXPECT_GE(curly, 0);
    EXPECT_GE(square, 0);
  }
  EXPECT_FALSE(in_str);
  EXPECT_EQ(curly, 0);
  EXPECT_EQ(square, 0);
}

TEST(Export, ChromeTraceJson) {
  // In record order: a span is recorded when it ends, so the post batch
  // that started at 1500 comes after the instant event at 2000.
  const std::vector<SpanEvent> spans = {
      {1000, 500, 64, 1, static_cast<std::uint8_t>(SpanKind::kSendFast), 0},
      {2000, 0, 1, 0, static_cast<std::uint8_t>(SpanKind::kFilterSend), 0},
      {1500, 250, 2, 0, static_cast<std::uint8_t>(SpanKind::kPostSend), 0},
  };
  const std::string json = chrome_trace_json(spans);

  expect_balanced_json(json);
  // Duration spans export as complete ("X") events in microseconds...
  EXPECT_NE(json.find("\"name\": \"send.fast\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1.000, \"dur\": 0.500"), std::string::npos);
  // ...instant events as "i"...
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // ...ordered by start time...
  const auto send = json.find("send.fast");
  const auto post = json.find("post.send");
  const auto filter = json.find("filter.send");
  EXPECT_LT(send, post);
  EXPECT_LT(post, filter);
  // ...all on one named track.
  std::size_t tids = 0;
  for (auto at = json.find("\"tid\": "); at != std::string::npos;
       at = json.find("\"tid\": ", at + 1)) {
    EXPECT_EQ(json.compare(at, 9, "\"tid\": 1,"), 0);
    ++tids;
  }
  EXPECT_EQ(tids, spans.size() + 1);  // every event plus the track name
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Export, ReportOverloadsRouteThroughTheRegistry) {
  EngineStats s;
  s.app_sends += 3;
  s.fast_sends += 2;
  const std::string r = report(s);
  EXPECT_NE(r.find("pa_engine_app_sends_total 3"), std::string::npos);
  EXPECT_NE(r.find("pa_engine_fast_sends_total 2"), std::string::npos);
  EXPECT_EQ(r.find("slow_sends"), std::string::npos);  // zero → suppressed
}

// ---------------------------------------------------------------------------
// Catalog coverage: every exportable metric name and span kind must appear
// in docs/OBSERVABILITY.md.

std::string read_catalog() {
  std::ifstream f(std::string(PA_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void collect_names(const MetricsRegistry& reg, std::vector<std::string>& out) {
  for (const MetricSample& s : reg.collect()) out.push_back(s.name);
}

// Every name the stat-struct bindings export, over default-constructed (or
// default-built) sources.
std::vector<std::string> bound_stat_names() {
  std::vector<std::string> names;
  {
    MetricsRegistry reg;
    EngineStats es;
    Router::Stats rs;
    GcModel::Stats gs;
    MessagePool::Stats ps;
    SimNetwork::Stats ns;
    bind_stats(reg, es);
    bind_stats(reg, rs);
    bind_stats(reg, gs);
    bind_stats(reg, ps);
    bind_stats(reg, buf_stats());
    bind_stats(reg, ns);
    Stack window_stack{StackSpec::paper()};
    bind_stack_stats(reg, window_stack);
    collect_names(reg, names);
  }
  {
    // The layer variants the default stack does not contain: the NAK
    // protocol and the doubled-window ablation. One registry per stack: a
    // name binds once.
    StackSpec nak = StackSpec::paper();
    *nak.find(LayerSpec::Type::kWindow) = LayerSpec::nak_layer();
    Stack nak_stack{nak};
    Stack dbl_stack{StackSpec{}
                        .add(LayerSpec::frag_layer({/*threshold=*/8192}))
                        .add(LayerSpec::seq_layer())
                        .add(LayerSpec::window_layer({}))
                        .add(LayerSpec::window_layer({}))
                        .add(LayerSpec::bottom_layer({}))};
    Stack mix_stack{StackSpec{}
                        .add(LayerSpec::comp_layer())
                        .add(LayerSpec::frag_layer({/*threshold=*/8192}))
                        .add(LayerSpec::seq_layer())
                        .add(LayerSpec::window_layer({}))
                        .add(LayerSpec::crypt_layer())
                        .add(LayerSpec::relay_layer())
                        .add(LayerSpec::bottom_layer({}))};
    for (const Stack* st : {&nak_stack, &dbl_stack, &mix_stack}) {
      MetricsRegistry reg;
      bind_stack_stats(reg, *st);
      collect_names(reg, names);
    }
  }
  {
    // The per-object planes: a live two-member group (its view, counters,
    // health plane and derived gauges, plus one link's gossip layer) and
    // an overload governor.
    World world;
    Node& hub = world.add_node("hub");
    Node& m0 = world.add_node("m0");
    Node& m1 = world.add_node("m1");
    group::McastGroup g(world, hub, {&m0, &m1});
    resil::OverloadGovernor gov;
    MetricsRegistry reg;
    g.bind_stats(reg);
    bind_stack_stats(reg, g.sender_endpoint(0)->engine().stack());
    gov.bind_stats(reg);
    collect_names(reg, names);
  }
  return names;
}

TEST(Catalog, EveryExportedMetricNameIsDocumented) {
  const std::string doc = read_catalog();
  ASSERT_FALSE(doc.empty()) << "docs/OBSERVABILITY.md missing or empty";

  // Every stat-struct binding.
  std::vector<std::string> names = bound_stat_names();

  // The process-global registry: run one exchange so the engine's phase
  // histograms lazily register, then take whatever is there.
  {
    World world;
    Node& a = world.add_node("a");
    Node& b = world.add_node("b");
    auto [src, dst] = world.connect(a, b, ConnOptions{});
    dst->on_deliver([](std::span<const std::uint8_t>) {});
    src->send(std::vector<std::uint8_t>{1, 2, 3});
    world.run();
    ASSERT_GT(src->engine().stats().app_sends, 0u);
    collect_names(registry(), names);
  }

  // Names only a live real-time loop or engine exchange would register.
  for (const char* n :
       {"net_loop_datagrams_tx_total", "net_loop_datagrams_rx_total",
        "net_loop_timers_fired_total", "net_loop_idle_polls_total",
        "net_loop_tx_backpressure_total", "net_loop_tx_refused_total",
        "net_loop_tx_errors_total", "net_loop_rx_refused_total",
        "net_loop_rx_errors_total", "net_loop_rx_overflow_total",
        "net_loop_timers_cancelled_total",
        "net_loop_faults_injected_total", "net_loop_wakeup_lag_ns",
        "pa_send_fast_ns", "pa_send_slow_ns",
        "pa_deliver_fast_ns", "pa_deliver_slow_ns", "pa_post_send_ns",
        "pa_post_deliver_ns"}) {
    names.push_back(n);
  }

  // The kernel-boundary batching counters (net/batch_io.h) register with
  // first use; push the canonical list so the docs must cover them even in
  // a build where no real loop ran.
  for (const char* n :
       {"net_batch_syscalls_total", "net_batch_wakeups_total",
        "net_batch_rx_batches_total", "net_batch_tx_batches_total",
        "net_batch_tx_partial_total", "net_batch_rx_buf_recycled_total",
        "net_batch_rx_buf_fresh_total", "net_batch_fallback_active",
        "net_batch_rx_fill", "net_batch_tx_fill",
        "net_batch_msgs_per_wakeup"}) {
    names.push_back(n);
  }

  EXPECT_GT(names.size(), 80u);  // the unification actually covers the repo
  for (const std::string& n : names) {
    EXPECT_NE(doc.find(n), std::string::npos)
        << "metric `" << n << "` is exported but not in docs/OBSERVABILITY.md";
  }
}

// The reverse direction for the stat-struct prefixes: every backticked
// metric name the catalog documents under them must really be exported, so
// a deleted or renamed stat cannot linger in the docs.
TEST(Catalog, EveryDocumentedStatIsExported) {
  const std::string doc = read_catalog();
  ASSERT_FALSE(doc.empty());
  const std::vector<std::string> bound = bound_stat_names();
  const std::set<std::string> exported(bound.begin(), bound.end());
  const std::regex documented(
      "`((pa_engine|pa_router|sim_gc|pa_pool|buf|sim_network|pa_stack|group|"
      "health|resil)_[a-z0-9_]+)`");
  std::size_t checked = 0;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), documented);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    ++checked;
    EXPECT_EQ(exported.count(name), 1u)
        << "metric `" << name
        << "` is in docs/OBSERVABILITY.md but no binding exports it";
  }
  EXPECT_GT(checked, 100u);  // the pattern actually matches the catalog
}

// Groups, health planes and governors are per-object: each binds its own
// stats into a registry its caller owns, so running them leaves no trace
// in the process-global registry.
TEST(Catalog, PerObjectPlanesStayOutOfTheProcessRegistry) {
  World world;
  Node& hub = world.add_node("hub");
  Node& m0 = world.add_node("m0");
  Node& m1 = world.add_node("m1");
  group::McastGroup g(world, hub, {&m0, &m1});
  g.mcast(std::vector<std::uint8_t>{1, 2, 3});
  world.run_until(vt_ms(100));
  g.poll();
  ASSERT_EQ(g.stats().delivered, 2u);

  health::HealthPlane plane;
  plane.track(7);
  plane.note_heard(7, vt_ms(1));
  plane.tick(vt_ms(2));
  resil::OverloadGovernor gov;
  gov.report_backlog(1000);
  gov.tick(vt_ms(1));
  ASSERT_NE(gov.level(), resil::OverloadLevel::kNormal);

  std::vector<std::string> names;
  collect_names(registry(), names);
  for (const std::string& n : names) {
    EXPECT_FALSE(n.starts_with("group_") || n.starts_with("health_") ||
                 n.starts_with("resil_"))
        << "per-object metric `" << n << "` is in the process registry";
  }
}

TEST(Catalog, EverySpanKindIsDocumented) {
  const std::string doc = read_catalog();
  ASSERT_FALSE(doc.empty());
  for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
    const char* name = span_kind_name(static_cast<SpanKind>(k));
    EXPECT_NE(doc.find(name), std::string::npos)
        << "span kind `" << name << "` is not in docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace pa::obs
