// Virtual CPU cost model.
//
// Our C++ protocol code is orders of magnitude faster than the paper's 1996
// SPARC-20 running O'Caml, so wall-clock time cannot reproduce the paper's
// latency composition. Instead, every protocol operation *executes for real*
// (correctness is genuine) while its CPU time is charged in virtual time
// from this model, calibrated to the paper's measurements:
//
//   - PA fast paths: ~25 µs each way (Figure 4's send and deliver spans).
//   - O'Caml stack post-processing: 80 µs post-send / 50 µs post-deliver for
//     the 4-layer sliding-window stack; an extra window layer adds ~15 µs to
//     each (§5).
//   - Original C Horus (classic engine): 1.5 ms round trip for the same
//     4-layer stack => ~89/90 µs per layer per direction on the critical
//     path.
//
// All parameters are plain data — benches sweep them for ablations.
#pragma once

#include "util/types.h"

namespace pa {

/// Kinds of built-in layers (used to look up per-layer phase costs).
enum class LayerKind : std::uint8_t {
  kBottom,
  kWindow,
  kSeq,
  kFrag,
  kCustom,
  kComp,
  kCrypt,
  kRelay,
};

const char* layer_kind_name(LayerKind kind);

/// Virtual CPU cost of each canonical phase of one layer.
struct PhaseCosts {
  VtDur pre_send = 0;
  VtDur post_send = 0;
  VtDur pre_deliver = 0;
  VtDur post_deliver = 0;
};

struct CostModel {
  // --- the PA itself (written in C in the paper) -------------------------
  VtDur pa_send_path = vt_us(25);     // predicted hdr + send filter + handoff
  VtDur pa_deliver_path = vt_us(25);  // lookup + recv filter + predict check
  VtDur pa_per_packed_extra = vt_us(1);  // unpack cost per extra sub-message
  VtDur pa_backlog_per_msg = vt_us(10);  // enqueue+copy of a backlogged msg
  VtDur timer_cost = vt_us(3);           // firing a protocol timer

  // --- the O'Caml protocol stack (per layer instance, per phase) ---------
  PhaseCosts ml_bottom{vt_us(20), vt_us(30), vt_us(15), vt_us(15)};
  PhaseCosts ml_window{vt_us(15), vt_us(15), vt_us(15), vt_us(15)};
  PhaseCosts ml_seq{vt_us(10), vt_us(15), vt_us(10), vt_us(10)};
  PhaseCosts ml_frag{vt_us(10), vt_us(20), vt_us(10), vt_us(10)};
  PhaseCosts ml_custom{vt_us(15), vt_us(15), vt_us(15), vt_us(15)};
  // Post-paper layers (composable-stack extension). The codec work itself
  // (cipher, compressor) runs for real; these model only the per-layer
  // protocol bookkeeping an O'Caml layer would add around it.
  PhaseCosts ml_comp{vt_us(12), vt_us(10), vt_us(12), vt_us(10)};
  PhaseCosts ml_crypt{vt_us(15), vt_us(15), vt_us(15), vt_us(15)};
  PhaseCosts ml_relay{vt_us(5), vt_us(5), vt_us(5), vt_us(5)};

  // --- the classic (original C Horus) engine -----------------------------
  // Full per-layer critical-path cost per message, including the per-layer
  // header handling and buffer management the PA eliminates.
  VtDur classic_send_per_layer = vt_us(89);
  VtDur classic_deliver_per_layer = vt_us(90);
  VtDur classic_demux = vt_us(5);  // address-based connection lookup
  // Multiplier for running the classic engine in an ML-like language
  // (the FOX comparison context: SML TCP was ~9.4x C).
  double classic_lang_multiplier = 1.0;

  PhaseCosts ml_costs(LayerKind kind) const;
  VtDur classic_send_cost(std::size_t layers) const;
  VtDur classic_deliver_cost(std::size_t layers) const;

  /// Paper-calibrated defaults (the values above).
  static CostModel paper();

  /// All-zero model for unit tests that only care about behaviour.
  static CostModel zero();
};

}  // namespace pa
