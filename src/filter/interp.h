// Packet-filter interpreter.
//
// The paper's filters are interpreted ("Packet filter programs are currently
// interpreted"); this is that baseline. See filter/compiled.h for the
// Exokernel-style compiled backend the paper says it intends to adopt.
#pragma once

#include <cstdint>

#include "buf/message.h"
#include "filter/program.h"
#include "layout/view.h"

namespace pa {

/// Run a validated program over a message's headers (via `hdr`) and payload
/// (via `msg`). Returns the program's RETURN/ABORT value. A runtime fault
/// (division by zero) returns 0 — the fail-safe value: slow path on send,
/// drop on delivery.
std::int64_t run_filter(const FilterProgram& program, HeaderView& hdr,
                        const Message& msg);

/// The wide digest (FilterInstr::wide): digest the covered header bits of
/// every bound region (per CompiledLayout::digest_mask) followed by the
/// payload. Regions with an empty mask or no bound base pointer are
/// skipped, so the same program runs whether or not the optional conn-ident
/// region is present. Used by the interpreter, the compiled backend and
/// BottomLayer's classic-path verification — all three must agree bit for
/// bit.
std::uint64_t wide_digest(const HeaderView& hdr, const Message& msg);

}  // namespace pa
