#!/bin/sh
# One-shot reproduction: build, test, run every paper bench, run the
# examples. Exit status is non-zero if anything (including a paper-shape
# check) fails.
set -e

# Configure a build tree: a new one with Ninja, an existing one with the
# generator it was made with (the presets and a plain `cmake -B` make Unix
# Makefiles, and cmake refuses to switch a tree's generator).
configure() {
  dir=$1
  shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" -G Ninja "$@"
  fi
}

jobs=$(nproc 2>/dev/null || echo 2)
configure build
cmake --build build --parallel "$jobs"

echo "==== tests ===================================================="
ctest --test-dir build --output-on-failure
# Record the steady-state allocation count with every full run (the test
# gates it; this line keeps the number in the log).
build/tests/alloc_test | grep 'heap allocations per message'
# The same for wall-clock reads: the PA reads once per post batch plus its
# sampled phase timing, and not for a batch that opens at its frame's
# arrival; the classic engine reads at every LayerOps::now().
build/tests/clock_test --gtest_filter='ClockReads.*' \
  | grep 'clock reads per message'
# And for header prediction: the fixed layers (frag, bottom) are predicted
# once at construction, the others once per rebuild.
build/tests/alloc_test --gtest_filter='Predictions.*' \
  | grep 'predict calls per message'

echo "==== tests with assertions on ================================="
# Every other slice builds RelWithDebInfo, whose -DNDEBUG compiles out
# every assert. This one keeps the optimiser and drops NDEBUG, so the
# layout, window and engine invariants are checked across the suite.
configure build-assert -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-assert --parallel "$jobs"
ctest --test-dir build-assert --output-on-failure

echo "==== tests under ASan+UBSan ==================================="
configure build-san -DPA_SANITIZE=ON
cmake --build build-san --parallel "$jobs"
ctest --test-dir build-san --output-on-failure

echo "==== single-thread contract ==================================="
# One thread owns every engine, router, loop, chunk chain and all telemetry
# (docs/INTERNALS.md, "Threading contract"), so nothing is left for a
# thread sanitizer to check. This step keeps it that way: no thread, lock
# or atomic may appear outside the BufStats rows of src/buf/chunk.h, whose
# fields stay atomic only for wallbench's .load() reads.
if grep -rnE 'std::(thread|jthread|async|mutex|shared_mutex|condition_variable|atomic)|pthread_' \
    src bench examples tests \
    | grep -vE '^src/buf/chunk\.h:[0-9]+:  X\(std::atomic<std::uint64_t>, '; then
  echo "FAIL: threads, locks or atomics outside BufStats (listed above)"
  exit 1
fi

echo "==== no orphan headers ======================================="
# A header under src/ that no file but its own .cpp includes is code no
# other part of the tree uses: delete it instead of keeping it compiling.
# One that only files under tests/ include is code only the tests run:
# move it into tests/ as a fixture, or delete it with its tests.
orphans=0
for h in $(cd src && find . -name '*.h' | sed 's|^\./||' | sort); do
  users=$(grep -rlF "#include \"$h\"" src bench examples tests wallbench \
      | grep -vx "src/${h%.h}.cpp")
  if [ -z "$users" ]; then
    echo "orphan header: src/$h"
    orphans=1
  elif ! printf '%s\n' "$users" | grep -qv '^tests/'; then
    echo "test-only header: src/$h (included only by tests/)"
    orphans=1
  fi
done
if [ "$orphans" -ne 0 ]; then
  echo "FAIL: headers under src/ that no other file, or only tests, include"
  echo "      (listed above)"
  exit 1
fi

echo "==== clang-tidy (buffer / engine / layers / horus / health / group / resil / obs) ="
# Static races and perf regressions in the zero-copy data plane plus the
# composition, health, membership, overload and observability planes.
# Gated on the tool being present so the script still runs on lean
# containers.
if command -v clang-tidy >/dev/null 2>&1; then
  find src/buf src/pa src/layers src/horus src/health src/group src/resil \
      src/obs \
      -name '*.cpp' -print \
      | while read -r f; do
    clang-tidy --quiet -p build "$f" || exit 1
  done || status_tidy=1
  [ "${status_tidy:-0}" -eq 0 ] || { echo "FAIL: clang-tidy"; exit 1; }
else
  echo "clang-tidy not installed; skipping"
fi

echo "==== paper benches ============================================"
# Each bench's stdout is kept under build/bench-stdout/ so the modeled ones
# can be compared with their goldens below.
status=0
mkdir -p build/bench-stdout
for b in build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "---- $b"
  out="build/bench-stdout/${b#build/bench/bench_}.stdout"
  "$b" > "$out" || status=1
  cat "$out"
done

echo "==== modeled benches match their goldens ======================"
# The modeled benches run in virtual time from fixed seeds, so their JSON
# and stdout are byte-identical from run to run. bench/golden/ holds the
# committed outputs; any difference is a behaviour change that must be
# explained and the golden regenerated in the same change. BENCH_obs.json
# and BENCH_syscall.json are wall-clock and have no golden.
for g in fanout fig5 headline overload partition stackmix table4; do
  if ! cmp "BENCH_$g.json" "bench/golden/$g.json"; then
    echo "FAIL: BENCH_$g.json differs from bench/golden/$g.json"
    status=1
  fi
done
# Their printed tables are pinned the same way. bench_filter, bench_obs and
# bench_syscall time on the wall clock and have no golden stdout.
for g in ablation chaos ethernet fig4 headers layers maxload packing \
         fanout fig5 headline overload partition stackmix table4; do
  if ! cmp "build/bench-stdout/$g.stdout" "bench/golden/$g.stdout"; then
    echo "FAIL: bench_$g stdout differs from bench/golden/$g.stdout"
    status=1
  fi
done

echo "==== bench percentile keys ===================================="
# The observability layer's contract with the benches: bench_headline must
# publish closed-loop round-trip and per-phase latency percentiles in its
# JSON (docs/OBSERVABILITY.md "Benches" section).
for key in rt_p50_us rt_p99_us rt_p999_us pa_send_fast_ns_p50 \
           pa_deliver_fast_ns_p50 pa_post_send_ns_p50 \
           copies_per_send memcpy_bytes_per_send \
           zc_sweep_64B_copies_per_send zc_sweep_16384B_copies_per_send; do
  if ! grep -q "\"$key\"" BENCH_headline.json; then
    echo "FAIL: BENCH_headline.json is missing percentile key $key"
    status=1
  fi
done

echo "==== overload: shed before collapse ==========================="
# bench_overload (run above) publishes the offered-load-vs-goodput sweep.
# The governor's contract: at 2x saturation the stack still moves >= 70%
# of its peak goodput, every rejection is a counted shed_* reason
# (offered == delivered + shed at every point), and the run is crash-free.
for key in capacity_msgs_per_s goodput_retention_2x p999_admitted_us_2x; do
  if ! grep -q "\"$key\"" BENCH_overload.json; then
    echo "FAIL: BENCH_overload.json is missing key $key"
    status=1
  fi
done
for key in shed_accounted overload_governor_engaged overload_crash_free; do
  if ! grep -q "\"$key\": 1" BENCH_overload.json; then
    echo "FAIL: BENCH_overload.json: $key is not 1"
    status=1
  fi
done
retention=$(sed -n 's/.*"goodput_retention_2x": \([0-9.]*\).*/\1/p' \
            BENCH_overload.json)
if [ -z "$retention" ] || \
   ! awk "BEGIN { exit !($retention >= 0.70) }"; then
  echo "FAIL: goodput retention at 2x saturation is ${retention:-missing}" \
       "(need >= 0.70)"
  status=1
fi

echo "==== kernel batching: syscalls per message ===================="
# bench_syscall (run above) measures kernel crossings per delivered message
# with the batched real loop against the one-syscall-per-datagram baseline.
# Contract: < 0.25 syscalls per message at saturation, >= 4x fewer than the
# baseline, goodput no worse. When the sandbox has no UDP sockets the bench
# publishes sockets_available: 0 and the thresholds are vacuously green.
for key in syscalls_per_msg syscalls_per_msg_baseline reduction_x \
           msgs_per_wakeup goodput_ratio; do
  if ! grep -q "\"$key\"" BENCH_syscall.json; then
    echo "FAIL: BENCH_syscall.json is missing key $key"
    status=1
  fi
done
if ! grep -q '"syscall_batching_ok": 1' BENCH_syscall.json; then
  echo "FAIL: BENCH_syscall.json: syscall batching contract does not hold"
  status=1
fi
if grep -q '"sockets_available": 1' BENCH_syscall.json; then
  spm=$(sed -n 's/.*"syscalls_per_msg": \([0-9.]*\).*/\1/p' \
        BENCH_syscall.json)
  if [ -z "$spm" ] || ! awk "BEGIN { exit !($spm < 0.25) }"; then
    echo "FAIL: syscalls per message is ${spm:-missing} (need < 0.25)"
    status=1
  fi
fi

echo "==== group fanout: O(1) copies per mcast ======================"
# bench_fanout (run above) sweeps group size 1..1000. Its contract: byte
# copies per logical mcast stay O(1) in the group size (the in-MTU column),
# the whole stream is delivered, and per-member delivery latency at 1000
# members is published for trend tracking.
for key in fanout_copies_per_mcast_1 fanout_copies_per_mcast_1000 \
           fanout_clones_per_mcast_1000 fanout_amplification_1000 \
           member_deliver_p50_us_1000 member_deliver_p999_us_1000; do
  if ! grep -q "\"$key\"" BENCH_fanout.json; then
    echo "FAIL: BENCH_fanout.json is missing key $key"
    status=1
  fi
done
if ! grep -q '"fanout_copies_o1": 1' BENCH_fanout.json; then
  echo "FAIL: BENCH_fanout.json: copies per mcast are not O(1) in group size"
  status=1
fi
for n in 1 10 100 1000; do
  if ! grep -q "\"fanout_delivered_frac_$n\": 1\b" BENCH_fanout.json; then
    echo "FAIL: BENCH_fanout.json: incomplete delivery at $n members"
    status=1
  fi
done

for key in fanout_chaos_delivered_frac fanout_chaos_frames_lost; do
  if ! grep -q "\"$key\"" BENCH_fanout.json; then
    echo "FAIL: BENCH_fanout.json is missing key $key"
    status=1
  fi
done
if ! grep -q '"fanout_chaos_deterministic": 1' BENCH_fanout.json; then
  echo "FAIL: BENCH_fanout.json: seeded chaos phase is not deterministic"
  status=1
fi

echo "==== partition healing: detect fast, suspect rarely ==========="
# bench_partition (run above) exercises the health plane: phi-accrual
# suspicion under Gilbert-Elliott burst loss, a 60/40 set partition cut
# and healed, and the commutative view merge. All virtual-time from fixed
# seeds, so these gates are exact, not statistical.
for key in partition_false_suspect_rate partition_detect_p50_hb \
           partition_detect_p99_hb partition_reconverge_hb \
           partition_deads partition_restores; do
  if ! grep -q "\"$key\"" BENCH_partition.json; then
    echo "FAIL: BENCH_partition.json is missing key $key"
    status=1
  fi
done
if ! grep -q '"partition_merge_deterministic": 1' BENCH_partition.json; then
  echo "FAIL: BENCH_partition.json: opposite-order view merges diverged"
  status=1
fi
if ! grep -q '"partition_gate_ok": 1' BENCH_partition.json; then
  echo "FAIL: BENCH_partition.json: health-plane gates do not hold"
  status=1
fi
fsr=$(sed -n 's/.*"partition_false_suspect_rate": \([0-9.e-]*\).*/\1/p' \
      BENCH_partition.json)
if [ -z "$fsr" ] || ! awk "BEGIN { exit !($fsr < 0.01) }"; then
  echo "FAIL: false-suspect rate is ${fsr:-missing} (need < 0.01)"
  status=1
fi
p99=$(sed -n 's/.*"partition_detect_p99_hb": \([0-9.]*\).*/\1/p' \
      BENCH_partition.json)
if [ -z "$p99" ] || ! awk "BEGIN { exit !($p99 < 8.0) }"; then
  echo "FAIL: p99 detection latency is ${p99:-missing} heartbeats (need < 8)"
  status=1
fi
rec=$(sed -n 's/.*"partition_reconverge_hb": \([0-9.]*\).*/\1/p' \
      BENCH_partition.json)
if [ -z "$rec" ] || ! awk "BEGIN { exit !($rec < 10.0) }"; then
  echo "FAIL: post-heal reconvergence is ${rec:-missing} heartbeats (need < 10)"
  status=1
fi

echo "==== composed stacks: prediction masks every mix =============="
# bench_stackmix (run above) sweeps 6 runtime-composed stacks (AEAD crypt,
# LZ comp, relay hops and their combinations) x 64B-16KiB. Its contract:
# the steady-state AEAD+comp stack lives on the predicted paths (>= 90%
# deliver hit) and every composition's masked-overhead ratio (classic RT /
# PA RT, identical stack) is published per point.
for key in stackmix_aead_comp_deliver_hit stackmix_min_masked_ratio_64B \
           stackmix_base_64B_masked_ratio stackmix_crypt_64B_masked_ratio \
           stackmix_comp_1024B_masked_ratio \
           stackmix_aead_comp_1024B_masked_ratio \
           stackmix_relay_64B_masked_ratio \
           stackmix_full_16384B_masked_ratio; do
  if ! grep -q "\"$key\"" BENCH_stackmix.json; then
    echo "FAIL: BENCH_stackmix.json is missing key $key"
    status=1
  fi
done
if ! grep -q '"stackmix_gate_ok": 1' BENCH_stackmix.json; then
  echo "FAIL: BENCH_stackmix.json: composed-stack masking gates do not hold"
  status=1
fi
hit=$(sed -n 's/.*"stackmix_aead_comp_deliver_hit": \([0-9.]*\).*/\1/p' \
      BENCH_stackmix.json)
if [ -z "$hit" ] || ! awk "BEGIN { exit !($hit >= 0.90) }"; then
  echo "FAIL: AEAD+comp steady deliver hit is ${hit:-missing} (need >= 0.90)"
  status=1
fi

echo "==== wall-clock correctness smoke ============================="
# wallbench checks every delivered payload byte for byte. The inproc
# workload joins two engines in process and needs no sockets, so it must
# exit 0 (never 3, "unavailable"); it also exercises zero-copy frames
# shared between two engines' message pools.
if ! python3 wallbench/run.py --workload inproc --seed 1 --seconds 2; then
  echo "FAIL: wallbench inproc smoke run"
  status=1
fi
# The traced run builds every layer through LayerSpec::custom (TimedLayer
# wrappers) and checks its frames are byte-identical to the plain stack's,
# so it covers the custom-layer path of StackSpec.
if ! python3 wallbench/run.py --workload inproc --seed 1 --seconds 2 \
    --trace 1; then
  echo "FAIL: wallbench inproc traced smoke run"
  status=1
fi
# inproc never enters RealLoop. The rpc workload runs both engines over
# loopback UDP on one RealLoop, so it covers the loop's send trains and
# receive batches end to end. Exit 3 means the sandbox has no UDP sockets.
rc=0
python3 wallbench/run.py --workload rpc --seed 1 --seconds 2 || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
  echo "FAIL: wallbench rpc smoke run (exit $rc)"
  status=1
fi
# The stream workload loads the window, packing and fragments over the
# same loop, one full window per flow in flight.
rc=0
python3 wallbench/run.py --workload stream --seed 1 --seconds 2 || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
  echo "FAIL: wallbench stream smoke run (exit $rc)"
  status=1
fi

echo "==== trace exports ============================================"
# The span ring is the one tracer. bench_fig4 <path> and latency_tour
# --trace-out <path> write it as Chrome trace JSON; each file must parse,
# and the Figure-4 trace must name one track per node.
./build/bench/bench_fig4 build/fig4-trace.json > /dev/null || status=1
./build/examples/latency_tour --trace-out build/tour-trace.json \
  > /dev/null || status=1
for f in build/fig4-trace.json build/tour-trace.json; do
  if ! python3 -m json.tool "$f" > /dev/null; then
    echo "FAIL: $f is not valid JSON"
    status=1
  fi
done
if ! python3 -c '
import json, sys
tracks = {e["args"]["name"] for e in json.load(open(sys.argv[1]))
          if e.get("ph") == "M"}
sys.exit(0 if {"sender", "receiver"} <= tracks else 1)
' build/fig4-trace.json; then
  echo "FAIL: the fig4 trace names no sender and receiver tracks"
  status=1
fi

echo "==== examples ================================================="
# frame_inspector --metrics binds the engine, router and stack stats and
# prints the Prometheus export end to end ($e is left unquoted so it can
# carry an example's flags).
for e in quickstart rpc_server file_transfer latency_tour chat_room \
         udp_pingpong secure_chat relay bank "frame_inspector --metrics"; do
  echo "---- $e"
  ./build/examples/$e || status=1
done

exit $status
