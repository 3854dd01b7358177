// Unit + property tests: the packet-filter VM (paper §3.3, Table 2) —
// builder, validator, interpreter, and the compiled backend.
#include <gtest/gtest.h>

#include "buf/message.h"
#include "filter/compiled.h"
#include "filter/interp.h"
#include "filter/program.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace pa {
namespace {

struct Fixture {
  LayoutRegistry reg;
  FieldHandle f_len, f_sum, f_seq;
  CompiledLayout cl;
  std::vector<std::uint8_t> hdr;

  Fixture() {
    f_len = reg.add_field(FieldClass::kMsgSpec, "len", 16);
    f_sum = reg.add_field(FieldClass::kMsgSpec, "sum", 32);
    f_seq = reg.add_field(FieldClass::kProtoSpec, "seq", 32);
    cl = reg.compile(LayoutMode::kCompact);
    hdr.assign(16, 0);
  }

  HeaderView view(Endian e = Endian::kLittle) {
    HeaderView v(&cl, e);
    v.set_region(1, hdr.data());  // proto
    v.set_region(2, hdr.data() + 8);  // msg-spec
    return v;
  }
};

TEST(FilterProgram, ValidateRequiresReturn) {
  FilterProgram p;
  p.push_const(1);
  EXPECT_THROW(p.validate(0), std::runtime_error);
}

TEST(FilterProgram, ValidateRejectsEmpty) {
  FilterProgram p;
  EXPECT_THROW(p.validate(0), std::runtime_error);
}

TEST(FilterProgram, ValidateCatchesUnderflow) {
  FilterProgram p;
  p.op(FilterOp::kAdd).ret(1);
  EXPECT_THROW(p.validate(0), std::runtime_error);
}

TEST(FilterProgram, ValidateCatchesBadHandle) {
  FilterProgram p;
  p.push_field(FieldHandle{7}).ret(1);
  EXPECT_THROW(p.validate(3), std::runtime_error);
}

TEST(FilterProgram, StackDepthComputedExactly) {
  FilterProgram p;
  p.push_const(1).push_const(2).push_const(3).op(FilterOp::kAdd)
      .op(FilterOp::kMul).abort_if(0).ret(1);
  p.validate(0);
  EXPECT_EQ(p.max_stack_depth(), 3u);
}

TEST(FilterProgram, BuilderRejectsWrongOpMethod) {
  FilterProgram p;
  EXPECT_THROW(p.op(FilterOp::kReturn), std::invalid_argument);
  EXPECT_THROW(p.op(FilterOp::kPushConst), std::invalid_argument);
}

TEST(FilterProgram, PatchConst) {
  FilterProgram p;
  p.push_const(5);
  auto idx = p.last_index();
  p.ret(1);
  p.patch_const(idx, 42);
  p.validate(0);
  Fixture fx;
  auto v = fx.view();
  Message m = Message::with_payload(std::vector<std::uint8_t>{1});
  // Program: push 42, return 1 — stack value unused but patch must apply.
  EXPECT_EQ(p.code()[idx].imm, 42);
  EXPECT_EQ(run_filter(p, v, m), 1);
}

TEST(FilterProgram, PatchConstRejectsNonImmediate) {
  FilterProgram p;
  p.push_size().ret(1);
  EXPECT_THROW(p.patch_const(0, 3), std::invalid_argument);
}

TEST(FilterProgram, DisassembleReadable) {
  Fixture fx;
  FilterProgram p;
  p.push_size().pop_field(fx.f_len).digest().pop_field(fx.f_sum).ret(1);
  std::string d = p.disassemble();
  EXPECT_NE(d.find("PUSH_SIZE"), std::string::npos);
  EXPECT_NE(d.find("POP_FIELD"), std::string::npos);
  EXPECT_NE(d.find("crc32c"), std::string::npos);
}

TEST(FilterInterp, SendFilterFillsFields) {
  Fixture fx;
  FilterProgram p;
  p.push_size().pop_field(fx.f_len);
  p.digest().pop_field(fx.f_sum);
  p.ret(1);
  p.validate(fx.reg.size());

  auto payload = std::vector<std::uint8_t>{10, 20, 30, 40, 50};
  Message m = Message::with_payload(payload);
  auto v = fx.view();
  EXPECT_EQ(run_filter(p, v, m), 1);
  EXPECT_EQ(v.get(fx.f_len), 5u);
  EXPECT_EQ(v.get(fx.f_sum), crc32c(payload));
}

TEST(FilterInterp, RecvFilterVerifies) {
  Fixture fx;
  FilterProgram p;
  p.push_size().push_field(fx.f_len).op(FilterOp::kNe).abort_if(0);
  p.push_field(fx.f_sum).digest().op(FilterOp::kNe).abort_if(0);
  p.ret(1);
  p.validate(fx.reg.size());

  auto payload = std::vector<std::uint8_t>{1, 2, 3};
  Message m = Message::with_payload(payload);
  auto v = fx.view();
  v.set(fx.f_len, 3);
  v.set(fx.f_sum, crc32c(payload));
  EXPECT_EQ(run_filter(p, v, m), 1);

  v.set(fx.f_sum, crc32c(payload) ^ 1);  // corrupt
  EXPECT_EQ(run_filter(p, v, m), 0);
  v.set(fx.f_sum, crc32c(payload));
  v.set(fx.f_len, 7);  // wrong length
  EXPECT_EQ(run_filter(p, v, m), 0);
}

TEST(FilterInterp, ArithmeticAndComparisons) {
  Fixture fx;
  auto run1 = [&](auto build) {
    FilterProgram p;
    build(p);
    p.validate(fx.reg.size());
    auto v = fx.view();
    Message m;
    return run_filter(p, v, m);
  };
  // (7-2)*3 == 15 ? return 5 : fallthrough return 9
  EXPECT_EQ(run1([](FilterProgram& p) {
              p.push_const(7).push_const(2).op(FilterOp::kSub)
                  .push_const(3).op(FilterOp::kMul).push_const(15)
                  .op(FilterOp::kEq).abort_if(5).ret(9);
            }),
            5);
  EXPECT_EQ(run1([](FilterProgram& p) {
              p.push_const(8).push_const(3).op(FilterOp::kMod).push_const(2)
                  .op(FilterOp::kEq).abort_if(4).ret(0);
            }),
            4);
  EXPECT_EQ(run1([](FilterProgram& p) {
              p.push_const(1).push_const(4).op(FilterOp::kShl).push_const(16)
                  .op(FilterOp::kNe).abort_if(1).ret(7);
            }),
            7);
  EXPECT_EQ(run1([](FilterProgram& p) {
              p.push_const(5).push_const(5).op(FilterOp::kGe).abort_if(3)
                  .ret(0);
            }),
            3);
}

TEST(FilterInterp, DivisionByZeroFailsSafe) {
  Fixture fx;
  FilterProgram p;
  p.push_const(10).push_const(0).op(FilterOp::kDiv).ret(1);
  p.validate(fx.reg.size());
  auto v = fx.view();
  Message m;
  EXPECT_EQ(run_filter(p, v, m), 0);
}

// The wide digest streams the masked header bytes through a small fixed
// buffer. With more covered bytes than that buffer holds, the result must
// still equal the one-shot digest of (masked regions ++ payload).
TEST(FilterInterp, WideDigestOfLongHeaderEqualsFlatDigest) {
  LayoutRegistry reg;
  for (int i = 0; i < 30; ++i) {
    reg.add_field(FieldClass::kProtoSpec, "p" + std::to_string(i), 13);
    reg.add_field(FieldClass::kGossip, "g" + std::to_string(i), 24);
  }
  reg.add_field(FieldClass::kMsgSpec, "sum", 32);
  const CompiledLayout cl = reg.compile(LayoutMode::kCompact);

  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> regions(cl.num_regions());
  HeaderView v(&cl, Endian::kLittle);
  std::vector<std::uint8_t> flat;
  std::size_t covered = 0;
  for (std::size_t r = 0; r < cl.num_regions(); ++r) {
    regions[r].resize(cl.region_bytes(r));
    for (auto& b : regions[r]) b = static_cast<std::uint8_t>(rng.next());
    if (regions[r].empty()) continue;
    v.set_region(r, regions[r].data());
    const auto& mask = cl.digest_mask(r);
    covered += mask.size();
    for (std::size_t i = 0; i < mask.size(); ++i) {
      flat.push_back(static_cast<std::uint8_t>(regions[r][i] & mask[i]));
    }
  }
  ASSERT_GT(covered, 128u);  // several buffer refills

  std::vector<std::uint8_t> payload(333);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  const Message m = Message::with_payload(payload);
  flat.insert(flat.end(), payload.begin(), payload.end());

  EXPECT_EQ(wide_digest(v, m), crc32c(flat));
}

TEST(FilterCompiled, FusesCanonicalSendProgram) {
  Fixture fx;
  FilterProgram p;
  p.push_size().pop_field(fx.f_len);
  p.digest().pop_field(fx.f_sum);
  p.ret(1);
  p.validate(fx.reg.size());
  auto c = CompiledFilter::compile(p, fx.cl, Endian::kLittle);
  EXPECT_EQ(c.fused_count(), 2u);
  EXPECT_EQ(c.size(), 3u);  // StoreSize, StoreDigest, Return
}

TEST(FilterCompiled, FusesCanonicalRecvProgram) {
  Fixture fx;
  FilterProgram p;
  p.push_size().push_field(fx.f_len).op(FilterOp::kNe).abort_if(0);
  p.push_field(fx.f_sum).digest().op(FilterOp::kNe).abort_if(0);
  p.push_size().push_const(1024).op(FilterOp::kGt).abort_if(0);
  p.ret(1);
  p.validate(fx.reg.size());
  auto c = CompiledFilter::compile(p, fx.cl, Endian::kLittle);
  EXPECT_EQ(c.fused_count(), 3u);
  EXPECT_EQ(c.size(), 4u);
}

TEST(FilterCompiled, MatchesInterpreterOnCanonicalPrograms) {
  Fixture fx;
  FilterProgram send;
  send.push_size().pop_field(fx.f_len);
  send.digest().pop_field(fx.f_sum);
  send.push_size().push_const(64).op(FilterOp::kGt).abort_if(0);
  send.ret(1);
  send.validate(fx.reg.size());

  for (std::size_t n : {0u, 5u, 64u, 65u, 100u}) {
    std::vector<std::uint8_t> payload(n, static_cast<std::uint8_t>(n));
    Message m1 = Message::with_payload(payload);
    Message m2 = Message::with_payload(payload);
    std::fill(fx.hdr.begin(), fx.hdr.end(), 0);
    auto v1 = fx.view();
    std::int64_t r1 = run_filter(send, v1, m1);
    auto saved = fx.hdr;
    std::fill(fx.hdr.begin(), fx.hdr.end(), 0);
    auto v2 = fx.view();
    auto c = CompiledFilter::compile(send, fx.cl, Endian::kLittle);
    std::int64_t r2 = c.run(v2, m2);
    EXPECT_EQ(r1, r2) << "payload " << n;
    EXPECT_EQ(saved, fx.hdr) << "payload " << n;
  }
}

TEST(FilterCompiled, BigEndianFieldAccess) {
  Fixture fx;
  FilterProgram p;
  p.push_size().pop_field(fx.f_len).ret(1);
  p.validate(fx.reg.size());
  auto c = CompiledFilter::compile(p, fx.cl, Endian::kBig);
  Message m = Message::with_payload(std::vector<std::uint8_t>(300, 1));
  auto v = fx.view(Endian::kBig);
  EXPECT_EQ(c.run(v, m), 1);
  EXPECT_EQ(v.get(fx.f_len), 300u);  // view reads big-endian too
}

// Property: random straight-line programs — compiled backend must agree
// with the interpreter on both result and header side effects, in both
// byte orders.
class FilterEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterEquivalence, CompiledMatchesInterpreter) {
  Rng rng(GetParam());
  LayoutRegistry reg;
  std::vector<FieldHandle> fields;
  std::vector<unsigned> bits;
  for (int i = 0; i < 4; ++i) {
    bits.push_back(8u << rng.next_below(3));  // 8/16/32
    fields.push_back(reg.add_field(FieldClass::kMsgSpec, "f", bits.back()));
  }
  auto cl = reg.compile(LayoutMode::kCompact);

  // Build a random, validator-approved program.
  FilterProgram p;
  int depth = 0;
  const int len = 3 + static_cast<int>(rng.next_below(20));
  for (int i = 0; i < len; ++i) {
    switch (rng.next_below(6)) {
      case 0:
        p.push_const(rng.next_below(1000));
        ++depth;
        break;
      case 1:
        p.push_field(fields[rng.next_below(fields.size())]);
        ++depth;
        break;
      case 2:
        p.push_size();
        ++depth;
        break;
      case 3:
        if (depth >= 1) {
          // Mask to the field's width: HeaderView::set asserts the value
          // fits, and arithmetic on the stack produces wider values.
          const std::size_t f = rng.next_below(fields.size());
          p.push_const((1ull << bits[f]) - 1).op(FilterOp::kAnd);
          p.pop_field(fields[f]);
          --depth;
        }
        break;
      case 4:
        if (depth >= 2) {
          static const FilterOp ops[] = {
              FilterOp::kAdd, FilterOp::kSub, FilterOp::kMul,
              FilterOp::kAnd, FilterOp::kOr,  FilterOp::kXor,
              FilterOp::kEq,  FilterOp::kNe,  FilterOp::kLt,
              FilterOp::kGt,  FilterOp::kLe,  FilterOp::kGe};
          p.op(ops[rng.next_below(std::size(ops))]);
          --depth;
        }
        break;
      case 5:
        if (depth >= 1) {
          p.abort_if(static_cast<std::int64_t>(rng.next_below(5)));
          --depth;
        }
        break;
    }
  }
  p.ret(static_cast<std::int64_t>(rng.next_below(3)));
  p.validate(reg.size());

  for (Endian e : {Endian::kLittle, Endian::kBig}) {
    std::vector<std::uint8_t> payload(rng.next_below(40));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> h1(cl.class_bytes(FieldClass::kMsgSpec), 0);
    std::vector<std::uint8_t> h2 = h1;

    Message m = Message::with_payload(payload);
    HeaderView v1(&cl, e);
    v1.set_region(2, h1.data());
    std::int64_t r1 = run_filter(p, v1, m);

    HeaderView v2(&cl, e);
    v2.set_region(2, h2.data());
    auto c = CompiledFilter::compile(p, cl, e);
    std::int64_t r2 = c.run(v2, m);

    EXPECT_EQ(r1, r2);
    EXPECT_EQ(h1, h2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterEquivalence,
                         ::testing::Range<std::uint64_t>(1, 65));

}  // namespace
}  // namespace pa
