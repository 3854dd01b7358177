#include "filter/program.h"

#include <cstdio>
#include <stdexcept>

namespace pa {

const char* filter_op_name(FilterOp op) {
  switch (op) {
    case FilterOp::kPushConst: return "PUSH_CONSTANT";
    case FilterOp::kPushField: return "PUSH_FIELD";
    case FilterOp::kPushSize: return "PUSH_SIZE";
    case FilterOp::kDigest: return "DIGEST";
    case FilterOp::kPopField: return "POP_FIELD";
    case FilterOp::kAdd: return "ADD";
    case FilterOp::kSub: return "SUB";
    case FilterOp::kMul: return "MUL";
    case FilterOp::kDiv: return "DIV";
    case FilterOp::kMod: return "MOD";
    case FilterOp::kAnd: return "AND";
    case FilterOp::kOr: return "OR";
    case FilterOp::kXor: return "XOR";
    case FilterOp::kShl: return "SHL";
    case FilterOp::kShr: return "SHR";
    case FilterOp::kEq: return "EQ";
    case FilterOp::kNe: return "NE";
    case FilterOp::kLt: return "LT";
    case FilterOp::kLe: return "LE";
    case FilterOp::kGt: return "GT";
    case FilterOp::kGe: return "GE";
    case FilterOp::kReturn: return "RETURN";
    case FilterOp::kAbort: return "ABORT";
  }
  return "?";
}

StackEffect filter_op_effect(FilterOp op) {
  switch (op) {
    case FilterOp::kPushConst:
    case FilterOp::kPushField:
    case FilterOp::kPushSize:
    case FilterOp::kDigest:
      return {0, 1};
    case FilterOp::kPopField:
    case FilterOp::kAbort:
      return {1, 0};
    case FilterOp::kReturn:
      return {0, 0};
    default:  // binary arithmetic / comparison
      return {2, 1};
  }
}

FilterProgram& FilterProgram::emit(FilterInstr in) {
  code_.push_back(in);
  validated_ = false;
  return *this;
}

FilterProgram& FilterProgram::push_const(std::uint64_t v) {
  return emit({FilterOp::kPushConst, static_cast<std::int64_t>(v), {}, {}});
}

FilterProgram& FilterProgram::push_field(FieldHandle h) {
  return emit({FilterOp::kPushField, 0, h, {}});
}

FilterProgram& FilterProgram::push_size() {
  return emit({FilterOp::kPushSize, 0, {}, {}});
}

FilterProgram& FilterProgram::digest(bool wide) {
  return emit({FilterOp::kDigest, 0, {}, wide});
}

FilterProgram& FilterProgram::pop_field(FieldHandle h) {
  return emit({FilterOp::kPopField, 0, h, {}});
}

FilterProgram& FilterProgram::op(FilterOp o) {
  switch (o) {
    case FilterOp::kPushConst:
    case FilterOp::kPushField:
    case FilterOp::kPushSize:
    case FilterOp::kDigest:
    case FilterOp::kPopField:
    case FilterOp::kReturn:
    case FilterOp::kAbort:
      throw std::invalid_argument("use the dedicated builder method");
    default:
      return emit({o, 0, {}, {}});
  }
}

FilterProgram& FilterProgram::ret(std::int64_t v) {
  return emit({FilterOp::kReturn, v, {}, {}});
}

FilterProgram& FilterProgram::abort_if(std::int64_t v) {
  return emit({FilterOp::kAbort, v, {}, {}});
}

void FilterProgram::patch_const(std::size_t index, std::int64_t v) {
  FilterInstr& in = code_.at(index);
  if (in.op != FilterOp::kPushConst && in.op != FilterOp::kReturn &&
      in.op != FilterOp::kAbort) {
    throw std::invalid_argument("patch_const: not an immediate-carrying op");
  }
  in.imm = v;
}

void FilterProgram::validate(std::size_t num_fields) {
  if (code_.empty()) throw std::runtime_error("empty filter program");
  if (code_.back().op != FilterOp::kReturn) {
    throw std::runtime_error("filter program must end with RETURN");
  }
  int depth = 0;
  int max_depth = 0;
  for (const FilterInstr& in : code_) {
    if ((in.op == FilterOp::kPushField || in.op == FilterOp::kPopField) &&
        (!in.field.valid() || in.field.index >= num_fields)) {
      throw std::runtime_error("filter references invalid field handle");
    }
    StackEffect eff = filter_op_effect(in.op);
    depth -= eff.pops;
    if (depth < 0) throw std::runtime_error("filter stack underflow");
    depth += eff.pushes;
    if (depth > max_depth) max_depth = depth;
  }
  // No loops and no jumps: reaching here proves termination; `max_depth` is
  // the exact stack size needed (paper: "the necessary size for the stack
  // can be calculated").
  max_depth_ = static_cast<std::size_t>(max_depth);
  validated_ = true;
}

std::string FilterProgram::disassemble() const {
  std::string out;
  char line[96];
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const FilterInstr& in = code_[i];
    switch (in.op) {
      case FilterOp::kPushConst:
      case FilterOp::kReturn:
      case FilterOp::kAbort:
        std::snprintf(line, sizeof line, "%3zu  %-14s %lld\n", i,
                      filter_op_name(in.op),
                      static_cast<long long>(in.imm));
        break;
      case FilterOp::kPushField:
      case FilterOp::kPopField:
        std::snprintf(line, sizeof line, "%3zu  %-14s field#%u\n", i,
                      filter_op_name(in.op), in.field.index);
        break;
      case FilterOp::kDigest:
        std::snprintf(line, sizeof line, "%3zu  %-14s crc32c\n", i,
                      filter_op_name(in.op));
        break;
      default:
        std::snprintf(line, sizeof line, "%3zu  %s\n", i,
                      filter_op_name(in.op));
    }
    out += line;
  }
  return out;
}

}  // namespace pa
