// Packet-filter execution microbenchmarks (real wall-clock, std::chrono).
//
// Paper §3.3: "Packet filter programs are currently interpreted. We note
// that in the Exokernel project, a significant performance improvement was
// obtained by compiling packet filter programs into machine code. We intend
// to adopt this approach eventually." — this bench quantifies that gap for
// our interpreter vs the fused/compiled backend, on the actual filter
// programs the standard 4-layer stack installs.
//
// Each row doubles its iteration count until one timed run takes at least
// kMinRun, then prints that run's wall-clock ns per operation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "filter/compiled.h"
#include "filter/interp.h"
#include "horus/stack.h"
#include "pa/packing.h"

namespace pa {
namespace {

constexpr std::chrono::milliseconds kMinRun{250};

/// Keep `v` alive: the compiler must assume it is read, so the work that
/// produced it cannot be optimised away.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Time `op` (one operation per call) and print its ns/op row.
template <class Op>
void measure(const char* name, Op op) {
  using Clock = std::chrono::steady_clock;
  for (std::uint64_t n = 1024;; n *= 2) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) op();
    const Clock::duration took = Clock::now() - t0;
    if (took >= kMinRun) {
      const double ns =
          std::chrono::duration<double, std::nano>(took).count() /
          static_cast<double>(n);
      std::printf("%-28s %10.2f ns/op %12llu iterations\n", name, ns,
                  static_cast<unsigned long long>(n));
      return;
    }
  }
}

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

void SendFilterInterpreted() {
  Fix& f = fix();
  HeaderView v = f.view();
  measure("SendFilterInterpreted", [&] {
    keep(run_filter(f.stack.send_prog(), v, f.msg));
  });
}

void SendFilterCompiled() {
  Fix& f = fix();
  HeaderView v = f.view();
  measure("SendFilterCompiled", [&] { keep(f.csend.run(v, f.msg)); });
}

void RecvFilterInterpreted() {
  Fix& f = fix();
  HeaderView v = f.view();
  measure("RecvFilterInterpreted", [&] {
    keep(run_filter(f.stack.recv_prog(), v, f.msg));
  });
}

void RecvFilterCompiled() {
  Fix& f = fix();
  HeaderView v = f.view();
  measure("RecvFilterCompiled", [&] { keep(f.crecv.run(v, f.msg)); });
}

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

void CheckFilterInterpreted() {
  CheckFix& f = check_fix();
  HeaderView v = f.view();
  measure("CheckFilterInterpreted", [&] {
    keep(run_filter(f.prog, v, f.msg));
  });
}

void CheckFilterCompiled() {
  CheckFix& f = check_fix();
  HeaderView v = f.view();
  measure("CheckFilterCompiled", [&] { keep(f.compiled.run(v, f.msg)); });
}

// Header field access: aligned fast path vs bit-granular path.
void FieldAccessAligned() {
  LayoutRegistry reg;
  auto h = reg.add_field(FieldClass::kProtoSpec, "seq", 32);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::uint8_t buf[8] = {};
  HeaderView v(&cl, host_endian());
  v.set_region(1, buf);
  std::uint64_t x = 0;
  measure("FieldAccessAligned", [&] {
    v.set(h, ++x & 0xffffffff);
    keep(v.get(h));
  });
}

void FieldAccessBitGranular() {
  LayoutRegistry reg;
  reg.add_field(FieldClass::kProtoSpec, "pad", 3);
  auto h = reg.add_field(FieldClass::kProtoSpec, "odd", 13);
  auto cl = reg.compile(LayoutMode::kCompact);
  std::vector<std::uint8_t> buf(cl.class_bytes(FieldClass::kProtoSpec), 0);
  HeaderView v(&cl, host_endian());
  v.set_region(1, buf.data());
  std::uint64_t x = 0;
  measure("FieldAccessBitGranular", [&] {
    v.set(h, ++x & 0x1fff);
    keep(v.get(h));
  });
}

// Prediction check: the PA's fast-path memcmp of the proto-spec region.
void PredictionCompare() {
  Fix& f = fix();
  std::vector<std::uint8_t> predicted(f.layout.class_bytes(
      FieldClass::kProtoSpec));
  measure("PredictionCompare", [&] {
    keep(
        std::memcmp(f.hdr.data() + f.layout.class_bytes(FieldClass::kConnId),
                    predicted.data(), predicted.size()));
  });
}

}  // namespace
}  // namespace pa

int main() {
  std::printf("bench_filter — packet-filter execution, interpreted vs "
              "compiled (wall clock)\n");
  pa::SendFilterInterpreted();
  pa::SendFilterCompiled();
  pa::RecvFilterInterpreted();
  pa::RecvFilterCompiled();
  pa::CheckFilterInterpreted();
  pa::CheckFilterCompiled();
  pa::FieldAccessAligned();
  pa::FieldAccessBitGranular();
  pa::PredictionCompare();
  return 0;
}
