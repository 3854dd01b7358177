// Header-size accounting (paper §2).
//
// Claims reproduced:
//   - the Horus connection identification occupies ~76 bytes (§2.2);
//   - classic per-layer 4-byte-aligned headers cost >= 12 bytes of padding
//     for a fairly small stack (§2.1);
//   - the PA's compact per-class headers put the steady-state total "much
//     less than 40 bytes" including the 8-byte preamble (§2.2, Figure 1);
//   - connection identification is sent only on the first/unusual messages.
#include "common.h"
#include "pa/packing.h"

using namespace pa;
using namespace pa::bench;

int main(int argc, char** argv) {
  parse_seed(argc, argv);
  banner("bench_headers — header overhead, PA compact vs classic layered",
         "paper §2 (76 B conn-ident; >=12 B classic padding; <40 B compact)");

  // Build the standard 4-layer stack's registry exactly as the engines do.
  Stack stack{StackSpec::paper()};
  PackingFields pf = register_packing_fields(stack.registry());
  (void)pf;
  stack.init();
  auto compact = stack.registry().compile(LayoutMode::kCompact);
  auto classic = stack.registry().compile(LayoutMode::kClassic);

  std::printf("\n--- compact (PA) layout ---\n%s\n",
              compact.describe(stack.registry()).c_str());
  std::printf("--- classic layout ---\n%s\n",
              classic.describe(stack.registry()).c_str());

  const std::size_t ci = compact.class_bytes(FieldClass::kConnId);
  const std::size_t steady = 8 /*preamble*/ +
                             compact.class_bytes(FieldClass::kProtoSpec) +
                             compact.class_bytes(FieldClass::kMsgSpec) +
                             compact.class_bytes(FieldClass::kGossip) +
                             compact.class_bytes(FieldClass::kPacking);
  std::size_t classic_total = 0;
  std::size_t classic_padding_bits = 0;
  for (std::size_t r = 0; r + 1 < classic.num_regions(); ++r) {
    classic_total += classic.region_bytes(r);
    classic_padding_bits += classic.region_padding_bits(r);
  }

  header_row();
  row("connection identification", "~76 B", fmt(ci, "B", 0));
  row("PA steady-state wire header", "<40 B", fmt(steady, "B", 0),
      "(preamble + 4 compact classes)");
  row("PA first-message wire header", "-", fmt(steady + ci, "B", 0));
  row("classic per-message header", "-", fmt(classic_total, "B", 0),
      "(per-layer, ident every message)");
  row("classic alignment padding", ">=12 B",
      fmt(classic_padding_bits / 8.0, "B", 1));

  // Observed on the wire: run one 8-byte message + one steady-state message
  // through each engine and report actual frame sizes.
  auto frame_sizes = [](bool use_pa) {
    WorldConfig wc;
    wc.seed = g_world_seed;
    World w(wc);
    auto& a = w.add_node("src");
    auto& b = w.add_node("dst");
    ConnOptions opt;
    opt.use_pa = use_pa;
    auto [src, dst] = w.connect(a, b, opt);
    (void)dst;
    src->send(payload_of(8));
    w.run_for(vt_ms(5));
    std::uint64_t first_bytes = w.network().stats().bytes_sent;
    std::uint64_t first_frames = w.network().stats().frames_sent;
    src->send(payload_of(8));
    w.run_for(vt_ms(1));
    std::uint64_t second = w.network().stats().bytes_sent - first_bytes;
    std::uint64_t frames = w.network().stats().frames_sent - first_frames;
    return std::pair<double, double>(
        static_cast<double>(first_bytes) / first_frames,
        frames ? static_cast<double>(second) / frames : 0.0);
  };
  auto [pa_first, pa_steady] = frame_sizes(true);
  auto [cl_first, cl_steady] = frame_sizes(false);
  row("PA frame, first msg (8 B data)", "-", fmt(pa_first, "B", 0));
  row("PA frame, steady state (8 B data)", "<48 B", fmt(pa_steady, "B", 0));
  row("classic frame (8 B data)", "-", fmt(cl_steady, "B", 0));
  row("wire-header saving, steady state", "-",
      fmt(cl_steady - pa_steady, "B", 0));

  bool ok = ci >= 76 && ci <= 80 && steady < 40 &&
            classic_padding_bits >= 12 * 8 && pa_steady < 48 &&
            cl_steady > 2 * pa_steady;
  std::printf("\nRESULT: %s\n", ok ? "shape holds" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}
