// Packet-filter execution microbenchmarks (real wall-clock, google-benchmark).
//
// Paper §3.3: "Packet filter programs are currently interpreted. We note
// that in the Exokernel project, a significant performance improvement was
// obtained by compiling packet filter programs into machine code. We intend
// to adopt this approach eventually." — this bench quantifies that gap for
// our interpreter vs the fused/compiled backend, on the actual filter
// programs the standard 4-layer stack installs.
#include <benchmark/benchmark.h>

#include "filter/compiled.h"
#include "filter/interp.h"
#include "horus/stack.h"
#include "pa/packing.h"

namespace pa {
namespace {

struct Fix {
  Stack stack{StackSpec::paper()};
  CompiledLayout layout;
  std::vector<std::uint8_t> hdr;
  Message msg{Message::with_payload(std::vector<std::uint8_t>(64, 0x5a))};
  CompiledFilter csend, crecv;

  Fix() {
    register_packing_fields(stack.registry());
    stack.init();
    layout = stack.registry().compile(LayoutMode::kCompact);
    std::size_t total = 0;
    for (std::size_t c = 0; c < kNumFieldClasses; ++c) {
      total += layout.region_bytes(c);
    }
    hdr.assign(total, 0);
    csend = CompiledFilter::compile(stack.send_prog(), layout, host_endian());
    crecv = CompiledFilter::compile(stack.recv_prog(), layout, host_endian());
    // Fill the msg-spec fields so the receive filter passes.
    HeaderView v = view();
    std::int64_t rc = run_filter(stack.send_prog(), v, msg);
    if (rc != 1) std::abort();
  }

  HeaderView view() {
    HeaderView v(&layout, host_endian());
    std::size_t off = 0;
    for (std::size_t c = 0; c < kNumFieldClasses; ++c) {
      v.set_region(c, hdr.data() + off);
      off += layout.region_bytes(c);
    }
    return v;
  }
};

Fix& fix() {
  static Fix f;
  return f;
}

void BM_SendFilterInterpreted(benchmark::State& state) {
  Fix& f = fix();
  HeaderView v = f.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_filter(f.stack.send_prog(), v, f.msg));
  }
}
BENCHMARK(BM_SendFilterInterpreted);

void BM_SendFilterCompiled(benchmark::State& state) {
  Fix& f = fix();
  HeaderView v = f.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.csend.run(v, f.msg));
  }
}
BENCHMARK(BM_SendFilterCompiled);

void BM_RecvFilterInterpreted(benchmark::State& state) {
  Fix& f = fix();
  HeaderView v = f.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_filter(f.stack.recv_prog(), v, f.msg));
  }
}
BENCHMARK(BM_RecvFilterInterpreted);

void BM_RecvFilterCompiled(benchmark::State& state) {
  Fix& f = fix();
  HeaderView v = f.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.crecv.run(v, f.msg));
  }
}
BENCHMARK(BM_RecvFilterCompiled);

// The stack programs above are dominated by the CRC-32C digest over the
// payload; to expose the dispatch/fusion gap itself, run a digest-free
// field-checking program (the kind a demultiplexing or sanity filter uses).
struct CheckFix {
  LayoutRegistry reg;
  std::vector<FieldHandle> f;
  FilterProgram prog;
  CompiledLayout layout;
  std::vector<std::uint8_t> hdr;
  Message msg{Message::with_payload(std::vector<std::uint8_t>(8, 1))};
  CompiledFilter compiled;

  CheckFix() {
    for (int i = 0; i < 5; ++i) {
      f.push_back(reg.add_field(FieldClass::kMsgSpec, "f", 32));
    }
    for (int i = 0; i < 5; ++i) {
      prog.push_field(f[i]).push_const(0).op(FilterOp::kNe).abort_if(0);
    }
    prog.push_size().push_const(1 << 16).op(FilterOp::kGt).abort_if(0);
    prog.ret(1);
    prog.validate(reg.size());
    layout = reg.compile(LayoutMode::kCompact);
    hdr.assign(layout.class_bytes(FieldClass::kMsgSpec), 0);
    compiled = CompiledFilter::compile(prog, layout, host_endian());
  }

  HeaderView view() {
    HeaderView v(&layout, host_endian());
    v.set_region(2, hdr.data());
    return v;
  }
};

CheckFix& check_fix() {
  static CheckFix f;
  return f;
}

void BM_CheckFilterInterpreted(benchmark::State& state) {
  CheckFix& f = check_fix();
  HeaderView v = f.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_filter(f.prog, v, f.msg));
  }
}
BENCHMARK(BM_CheckFilterInterpreted);

void BM_CheckFilterCompiled(benchmark::State& state) {
  CheckFix& f = check_fix();
  HeaderView v = f.view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.compiled.run(v, f.msg));
  }
}
BENCHMARK(BM_CheckFilterCompiled);

// Header field access: aligned fast path vs bit-granular path.
void BM_FieldAccessAligned(benchmark::State& state) {
  LayoutRegistry reg;
  auto h = reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::uint8_t buf[8] = {};
  HeaderView v(&cl, host_endian());
  v.set_region(1, buf);
  std::uint64_t x = 0;
  for (auto _ : state) {
    v.set(h, ++x & 0xffffffff);
    benchmark::DoNotOptimize(v.get(h));
  }
}
BENCHMARK(BM_FieldAccessAligned);

void BM_FieldAccessBitGranular(benchmark::State& state) {
  LayoutRegistry reg;
  reg.add_field(FieldClass::kProtoSpec, "pad", 3);
  auto h = reg.add_field(FieldClass::kProtoSpec, "odd", 13);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::vector<std::uint8_t> buf(cl.class_bytes(FieldClass::kProtoSpec), 0);
  HeaderView v(&cl, host_endian());
  v.set_region(1, buf.data());
  std::uint64_t x = 0;
  for (auto _ : state) {
    v.set(h, ++x & 0x1fff);
    benchmark::DoNotOptimize(v.get(h));
  }
}
BENCHMARK(BM_FieldAccessBitGranular);

// Prediction check: the PA's fast-path memcmp of the proto-spec region.
void BM_PredictionCompare(benchmark::State& state) {
  Fix& f = fix();
  std::vector<std::uint8_t> predicted(f.layout.class_bytes(
      FieldClass::kProtoSpec));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        std::memcmp(f.hdr.data() + f.layout.class_bytes(FieldClass::kConnId),
                    predicted.data(), predicted.size()));
  }
}
BENCHMARK(BM_PredictionCompare);

}  // namespace
}  // namespace pa

BENCHMARK_MAIN();
