// Packet-filter programs: construction and static validation.
//
// Layers build their filter fragments at stack-initialization time (paper:
// "The packet filters are constructed by the layers themselves, at
// run-time") by appending instructions; the PA seals the program with a
// final RETURN and validates it. Parts of a program may be rewritten during
// post-processing when message-specific info depends on protocol state —
// patch_const() supports that without re-validation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "filter/isa.h"

namespace pa {

class FilterProgram {
 public:
  // -- builder interface (chainable) --------------------------------------
  FilterProgram& push_const(std::uint64_t v);
  FilterProgram& push_field(FieldHandle h);
  FilterProgram& push_size();
  /// `wide` extends the digest over the predictable header regions too
  /// (see FilterInstr::wide).
  FilterProgram& digest(bool wide = false);
  FilterProgram& pop_field(FieldHandle h);
  FilterProgram& op(FilterOp o);  // arithmetic / comparison ops only
  FilterProgram& ret(std::int64_t v);
  FilterProgram& abort_if(std::int64_t v);

  /// Index of the most recently appended instruction (for later patching).
  std::size_t last_index() const { return code_.size() - 1; }

  /// Rewrite the immediate of a PUSH_CONSTANT/RETURN/ABORT at `index`
  /// (run-time filter rewriting, paper §3.3). Throws on other ops.
  void patch_const(std::size_t index, std::int64_t v);

  /// Static checks: program non-empty, ends in RETURN, never underflows,
  /// field handles valid (< num_fields), DIV/MOD noted. On success fills
  /// max_stack_depth(). Throws std::runtime_error on violation.
  void validate(std::size_t num_fields);
  bool validated() const { return validated_; }
  std::size_t max_stack_depth() const { return max_depth_; }

  const std::vector<FilterInstr>& code() const { return code_; }
  std::size_t size() const { return code_.size(); }
  bool empty() const { return code_.empty(); }

  std::string disassemble() const;

 private:
  FilterProgram& emit(FilterInstr in);

  std::vector<FilterInstr> code_;
  bool validated_ = false;
  std::size_t max_depth_ = 0;
};

}  // namespace pa
