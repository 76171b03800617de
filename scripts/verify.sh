#!/usr/bin/env bash
# Hermetic verification gate: the whole workspace must build, test and
# bench with --offline, using nothing outside the repository and the
# Rust toolchain. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "Cargo.lock is registry-free"
if grep -q "crates-io\|registry+" Cargo.lock; then
    echo "FAIL: Cargo.lock references a crates.io registry source:" >&2
    grep -n "crates-io\|registry+" Cargo.lock >&2
    exit 1
fi
echo "ok: only path-local workspace crates in Cargo.lock"

step "release build (offline, warnings are errors)"
RUSTFLAGS="-Dwarnings" cargo build --release --workspace --offline

step "examples build (offline, warnings are errors)"
RUSTFLAGS="-Dwarnings" cargo build --examples --offline

step "workspace tests (offline)"
cargo test --workspace -q --offline

step "snapshot feature tests (offline)"
cargo test -q --offline --features snapshot

step "perfbench build + self-check (offline): the benchmark still compiles against the crates"
# perfbench is a Cargo package of its own, outside the workspace, that
# calls AlgoSpec::build, optimal_threshold, FlowTable::tiered,
# record_batch_grouped and QueryHandle. Building and self-checking it
# here turns API drift in those crates into a verify failure instead
# of a broken benchmark.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "engine tests (offline): shard invariance + backpressure"
cargo test -q --offline -p smb-engine

step "kernel equivalence gates (offline): open-table differential + morph boundaries"
# The open-addressed flow table must be observationally identical to
# the hash map it replaced, and batched SMB recording bit-identical to
# sequential across morph boundaries. Any divergence fails the build.
cargo test -q --offline -p smb-sketch --test differential
cargo test -q --offline -p smb-core batched_matches_sequential

step "prefetch intrinsics gate: hints must lower on x86_64/aarch64"
# The batched-probe pipeline leans on software prefetch; if the
# per-arch intrinsics silently compile out (cfg drift, feature
# rename), the probe staging loop becomes pure overhead. The in-crate
# test asserts PREFETCH_ACTIVE on supported arches; requiring
# "1 passed" ensures the test itself wasn't filtered away by a rename.
prefetch_out="$(cargo test --offline -p smb-sketch --lib -- --exact \
    prefetch::tests::intrinsics_compiled_in_on_supported_arches 2>&1)"
if ! grep -q "1 passed" <<<"$prefetch_out"; then
    echo "FAIL: prefetch intrinsics gate did not run or pass:" >&2
    echo "$prefetch_out" >&2
    exit 1
fi
echo "ok: prefetch hints compiled in for this target (or explicit fallback arch)"

step "tier equivalence gates (offline): tiered cells vs eager estimators"
# The FlowCell tier ladder (inline -> array -> materialized) must be
# estimate-invisible: bit-identical to an always-materialized table at
# every promotion boundary, under random chunkings and duplicate-heavy
# streams — and every tier must round-trip its checkpoint state.
cargo test -q --offline -p smb-sketch --test tiering
cargo test -q --offline -p smb-sketch --features snapshot --test tiering

step "concurrency stress suite (offline): seeded schedules, reproducible"
# The morph flight recorder is the one lock-free structure in
# production with a multi-step publish protocol: writers claim ring
# slots with a ticket counter while a reader drains windows
# concurrently. Its tear-detection test runs on
# the seeded stress! harness: two pinned seeds replay fixed regression
# schedules on every run, and one clock-derived seed makes each verify
# run explore a fresh interleaving. Any failure prints the reproducing
# SMB_STRESS_SEED, so a red clock-seed run is directly replayable.
# Requiring "1 passed" ensures a rename cannot filter the test away.
flight_test=flight::tests::concurrent_writers_and_reader_never_tear_events
for seed in 0x51B0 0xC0FFEE "$(date +%s)"; do
    echo "-- stress schedules with SMB_STRESS_SEED=$seed"
    if ! stress_out="$(SMB_STRESS_SEED="$seed" cargo test --offline -p smb-telemetry --lib \
            -- --exact "$flight_test" 2>&1)" \
        || ! grep -q "1 passed" <<<"$stress_out"; then
        echo "FAIL: flight-recorder stress test did not run or pass:" >&2
        echo "$stress_out" >&2
        exit 1
    fi
done
# The harness's own self-tests (seed derivation, failure reporting)
# run unpinned so the reproduce-line machinery itself stays covered.
cargo test -q --offline -p smb-devtools stress
echo "ok: flight-recorder stress suite green under 2 pinned seeds + 1 clock seed"

step "thread sanitizer pass (nightly-only, degrades to SKIP)"
# TSan needs -Zsanitizer=thread, a nightly toolchain, and the rust-src
# component for -Zbuild-std. The container image is stable-only and
# offline, so this degrades to a visible SKIP rather than a silent
# pass; the seeded stress suite above remains the required gate.
if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q --offline \
        -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p smb-telemetry --lib -- --exact "$flight_test"
    echo "ok: ThreadSanitizer pass clean"
else
    echo "SKIP: nightly toolchain (or rust-src) absent — ThreadSanitizer not run; the seeded stress suite above still gates the flight recorder"
fi

step "telemetry tests (offline): metrics, morph events, exposition round-trip"
cargo test -q --offline -p smb-telemetry
cargo test -q --offline -p smb-telemetry --features telemetry-off

step "rustdoc (offline, warnings are errors) + doc tests"
RUSTDOCFLAGS="-Dwarnings" cargo doc --no-deps --workspace --offline
cargo test --doc --workspace -q --offline

step "checkpoint/restore smoke (offline): serve --checkpoint-dir, crash, restore"
# Epoch 0 is written in the v1 JSON format, epoch 1 in the default v2
# flow-block format — so tearing the newest (v2) epoch makes restore
# degrade across formats onto the v1 shards, exercising both decoders
# and the cross-format epoch sequence in one pass.
ckpt_dir="$(mktemp -d)/smb-ckpt"
trace_file="$(mktemp)"
cargo run -q --offline -p smb-cli --bin smbcount -- trace --flows 200 --seed 7 >"$trace_file"
serve_out="$(
    cargo run -q --offline -p smb-cli --bin smbcount -- \
        serve --shards 2 --top 5 --checkpoint-dir "$ckpt_dir" --checkpoint-format v1 <"$trace_file"
)"
grep -qF "checkpoint   : epoch 0" <<<"$serve_out" || {
    echo "FAIL: serve did not report its final checkpoint epoch:" >&2
    echo "$serve_out" >&2
    exit 1
}
# Second run continues the epoch sequence from disk, then a torn
# shard file in the newest epoch must degrade restore to epoch 0.
cargo run -q --offline -p smb-cli --bin smbcount -- \
    serve --shards 2 --checkpoint-dir "$ckpt_dir" <"$trace_file" >/dev/null
ls "$ckpt_dir"/epoch-0000000001/shard-0001.bin >/dev/null || {
    echo "FAIL: second serve run did not write v2 (.bin) shards by default" >&2
    ls -R "$ckpt_dir" >&2
    exit 1
}
truncate -s 16 "$ckpt_dir"/epoch-0000000001/shard-0001.bin
restore_out="$(cargo run -q --offline -p smb-cli --bin smbcount -- restore --dir "$ckpt_dir" --top 5)"
for needle in "restored     : epoch 0" \
              "flows        : 200" \
              "torn shard file"; do
    if ! grep -qF "$needle" <<<"$restore_out"; then
        echo "FAIL: restore output is missing: $needle" >&2
        echo "$restore_out" >&2
        exit 1
    fi
done
# The recovered estimates are the serve run's estimates, verbatim.
while IFS= read -r line; do
    if ! grep -qF "$line" <<<"$restore_out"; then
        echo "FAIL: restored estimates differ from the serve report: $line" >&2
        exit 1
    fi
done < <(grep -P '^[0-9a-f]{16}\t' <<<"$serve_out")
rm -rf "$(dirname "$ckpt_dir")" "$trace_file"
echo "ok: torn newest epoch degraded to epoch 0 with bit-identical estimates"

step "network serve smoke (offline): TCP loopback, scripted client, bit-identical top-k"
# A serve --listen server on an ephemeral port must report exactly the
# estimates a stdin-mode run of the same trace produces: the client
# ships the records over RECORD_BATCH frames, and the top-k rows that
# come back over the wire are compared verbatim against the reference
# report (PROTOCOL.md §"determinism").
net_trace="$(mktemp)"
serve_log="$(mktemp)"
cargo run -q --offline -p smb-cli --bin smbcount -- trace --flows 120 --seed 11 >"$net_trace"
net_ref="$(cargo run -q --offline -p smb-cli --bin smbcount -- serve --shards 2 --top 5 <"$net_trace")"
cargo run -q --offline -p smb-cli --bin smbcount -- \
    serve --shards 2 --top 5 --listen 127.0.0.1:0 </dev/null >"$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: serve --listen never reported its address:" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
record_out="$(cargo run -q --offline -p smb-cli --bin smbcount -- client record --connect "$addr" <"$net_trace")"
grep -qE "^records sent : [1-9]" <<<"$record_out" || {
    echo "FAIL: client record shipped nothing: $record_out" >&2
    exit 1
}
topk_out="$(cargo run -q --offline -p smb-cli --bin smbcount -- client top-k --connect "$addr" --top 5 </dev/null)"
while IFS= read -r line; do
    if ! grep -qF "$line" <<<"$topk_out"; then
        echo "FAIL: networked top-k differs from the stdin-mode report: $line" >&2
        echo "$topk_out" >&2
        exit 1
    fi
done < <(grep -P '^[0-9a-f]{16}\t' <<<"$net_ref")
cargo run -q --offline -p smb-cli --bin smbcount -- client shutdown --connect "$addr" </dev/null >/dev/null
wait "$serve_pid"
grep -qF "sessions     : " "$serve_log" || {
    echo "FAIL: serve --listen final report is missing the session count:" >&2
    cat "$serve_log" >&2
    exit 1
}
rm -f "$net_trace" "$serve_log"
echo "ok: loopback client round trip, top-k rows verbatim against stdin mode"

step "prometheus smoke (offline): serve --metrics prom over a tiny trace"
prom_out="$(
    cargo run -q --offline -p smb-cli --bin smbcount -- trace --flows 50 |
    cargo run -q --offline -p smb-cli --bin smbcount -- serve --shards 2 --metrics prom
)"
for needle in "# TYPE engine_items_enqueued_total counter" \
              'shard="1"' \
              "smb_morph_events_total"; do
    if ! grep -qF "$needle" <<<"$prom_out"; then
        echo "FAIL: serve --metrics prom output is missing: $needle" >&2
        exit 1
    fi
done
echo "ok: Prometheus exposition carries per-shard engine and SMB morph metrics"

step "doctor smoke (offline): one diagnostic JSON snapshot over a hot flow"
# 30k distinct items on one flow forces tier materialization and many
# morphs, so the snapshot must show a full-tier resident, drained
# queues, and a non-empty flight-recorder window.
doctor_out="$(
    awk 'BEGIN{for(i=0;i<30000;i++) printf "hot\t%d\n", i}' |
    cargo run -q --offline -p smb-cli --bin smbcount -- doctor --shards 2 --batch 64
)"
DOCTOR_JSON="$doctor_out" python3 - <<'EOF'
import json, os
doc = json.loads(os.environ["DOCTOR_JSON"])
census = doc["tier_census"]
print(f"tier_census: {census}")
if not census["full"] >= 1:
    raise SystemExit("FAIL: doctor tier census shows no materialized estimator for the hot flow")
queues = doc["queue_depths"]
if len(queues) != 2:
    raise SystemExit(f"FAIL: doctor reported {len(queues)} shard queues, expected 2")
for q in queues:
    if q["depth"] != 0:
        raise SystemExit(f"FAIL: shard {q['shard']} queue not drained after flush: {q}")
if not doc["morph"]["events_total"] > 0:
    raise SystemExit("FAIL: doctor saw no morph events on a 30k-item hot flow")
window = doc["flight_window"]
if not window:
    raise SystemExit("FAIL: doctor flight-recorder window is empty")
if not any(e["kind"] == "morph" for e in window):
    raise SystemExit("FAIL: doctor flight window carries no morph event")
if not doc["stage_ns"]:
    raise SystemExit("FAIL: doctor stage timings are empty despite trace_sample=1")
print(f"queue_depths drained across {len(queues)} shards; "
      f"{doc['morph']['events_total']} morphs; "
      f"flight window holds {len(window)} events")
EOF
echo "ok: doctor snapshot parses with tier census, drained queues and a live morph window"

step "smoke benchmarks (offline, in-tree harness)"
bench_json="$(mktemp)"
trap 'rm -f "$bench_json"' EXIT
SMB_BENCH_JSON="$bench_json" cargo bench -p smb-bench --bench query --offline -- --smoke
if ! grep -q '"label"' "$bench_json"; then
    echo "FAIL: bench harness did not emit JSON results to SMB_BENCH_JSON" >&2
    exit 1
fi
echo "ok: bench JSON written ($(wc -c <"$bench_json") bytes)"

step "smoke recording bench (offline): batched SMB kernel equivalence"
recording_json="$(mktemp)"
trap 'rm -f "$bench_json" "$recording_json"' EXIT
# The recording bench asserts per-item vs batched SMB estimates are
# bit-identical before reporting numbers; a divergence aborts the run.
SMB_BENCH_SMOKE=1 SMB_BENCH_JSON="$recording_json" cargo bench -p smb-bench --bench recording --offline
if ! grep -q 'smb_kernel/batched' "$recording_json"; then
    echo "FAIL: recording bench JSON is missing the batched SMB kernel results" >&2
    exit 1
fi
echo "ok: recording bench JSON written ($(wc -c <"$recording_json") bytes)"

step "smoke ingest bench (offline): kernel old-vs-new + engine throughput JSON"
# The ingest bench asserts old/new kernels produce bit-identical
# estimates, then reports items/sec both ways. The JSON lands in the
# committed BENCH_ingest.json baseline (kernel speedups + telemetry
# overhead), refreshed on every verify run.
# Absolute path: cargo runs bench binaries with the package directory
# as cwd, not the workspace root.
SMB_BENCH_SMOKE=1 SMB_BENCH_JSON="$PWD/BENCH_ingest.json" cargo bench -p smb-bench --bench ingest --offline
for needle in 'engine/shards=4' 'kernel/old-hashmap-per-item' 'kernel/new-grouped-openaddr' \
              '10k-flows-uniform' '100k-flows-uniform' \
              'kernel_speedup_single_flow' 'kernel_speedup_1k_flows' \
              'kernel_speedup_1k_flows_uniform' 'kernel_speedup_10k_flows_uniform' \
              'kernel_speedup_100k_flows_uniform' 'telemetry_overhead_pct' \
              'ingest/mpsc/producers=' 'mpsc_items_per_sec_producers_1' 'mpsc_scaling_producers_4' \
              'memory_per_flow_tiered_bytes' 'memory_per_flow_boxed_bytes' \
              'checkpoint_v2_over_json_100k' 'snapshot_encode_mb_per_sec'; do
    if ! grep -q "$needle" BENCH_ingest.json; then
        echo "FAIL: BENCH_ingest.json is missing: $needle" >&2
        exit 1
    fi
done
# Regression floors: the new kernel must beat the old per-item
# hash-map path on every shape it claims to accelerate. The batched
# probe pipeline (prefetch-staged lookups + inline-tier recording)
# lifted the uniform run-length-1 shape from a 0.6x parity report to
# a real >= 1.05x speedup gate at 1k flows. The 10k/100k uniform
# sweeps stress footprints past L2 where the prefetch hints engage;
# they typically measure 1.0-1.4x but swing with shared-host load,
# so they gate at 0.9 (regression floor, not a speedup claim) while
# the measured ratio is printed on every run.
python3 - <<'EOF'
import json
extra = json.load(open("BENCH_ingest.json"))["extra"]
floors = {
    "kernel_speedup_single_flow": 4.0,
    "kernel_speedup_1k_flows": 1.5,
    "kernel_speedup_1k_flows_uniform": 1.05,
    "kernel_speedup_10k_flows_uniform": 0.9,
    "kernel_speedup_100k_flows_uniform": 0.9,
}
for k, floor in floors.items():
    if k not in extra:
        raise SystemExit(f"FAIL: BENCH_ingest.json extra block is missing {k}")
    v = extra[k]
    print(f"{k}: {v:.2f}x (hard floor {floor}x)")
    if not v >= floor:
        raise SystemExit(f"FAIL: {k} = {v:.2f}x — below the {floor}x floor")
# Telemetry gate: the attributed observer cost (captured event stream
# + batch-cadence flushes timed in isolation, divided by the bare
# replay's best block) must exist, be a real positive cost (zero or
# negative means the measurement is broken, not that telemetry is
# free), and sit at or under the 5% target that used to be an
# aspiration behind a 20% ceiling.
for k in ("telemetry_bare_median_ns", "telemetry_observed_median_ns",
          "telemetry_overhead_pct", "telemetry_overhead_target_pct"):
    if k not in extra:
        raise SystemExit(f"FAIL: BENCH_ingest.json extra block is missing {k}")
if not (extra["telemetry_bare_median_ns"] > 0
        and extra["telemetry_observed_median_ns"] > 0):
    raise SystemExit("FAIL: telemetry replay timings are not positive — bench did not run")
gate = extra["telemetry_overhead_target_pct"]
tel = extra["telemetry_overhead_pct"]
print(f"telemetry_overhead_pct: {tel:.2f}% (gate 0 < overhead <= {gate}%)")
if not tel > 0.0:
    raise SystemExit(f"FAIL: telemetry overhead {tel:.2f}% is not positive — measurement suspect")
if not tel <= gate:
    raise SystemExit(f"FAIL: telemetry overhead {tel:.2f}% exceeds the {gate}% gate")
# Tiering memory gate: one million Zipf flows must average at most
# 64 resident bytes per flow on the tiered path, and the tiered path
# must actually beat the boxed always-materialized baseline.
tiered = extra["memory_per_flow_tiered_bytes"]
boxed = extra["memory_per_flow_boxed_bytes"]
print(f"memory_per_flow: tiered {tiered:.1f} B/flow vs boxed {boxed:.1f} B/flow (gate <= 64)")
if not tiered <= 64.0:
    raise SystemExit(f"FAIL: tiered memory {tiered:.1f} B/flow exceeds the 64 B gate")
if not tiered < boxed:
    raise SystemExit(f"FAIL: tiered ({tiered:.1f} B) does not beat boxed ({boxed:.1f} B)")
# The MPSC sweep shares one core between producers and shard workers,
# so it measures producer-path overhead, not speedup: no floor, but
# the numbers must exist and be positive for every swept count.
for p in (1, 2, 4):
    ips = extra[f"mpsc_items_per_sec_producers_{p}"]
    print(f"mpsc_items_per_sec_producers_{p}: {ips:,.0f} items/s")
    if not ips > 0:
        raise SystemExit(f"FAIL: mpsc sweep produced a non-positive rate for {p} producers")
# Checkpoint compression gate: the v2 flow-block format must at least
# halve the shard bytes of the v1 JSON format on the 100k-flow Zipf
# state (byte counts are deterministic, so this is a hard gate, not a
# timing floor). Snapshot codec throughput just has to exist and be
# positive — it is wall-clock and host-dependent.
for suffix in ("1k", "100k"):
    j = extra[f"checkpoint_json_bytes_per_flow_{suffix}"]
    v = extra[f"checkpoint_v2_bytes_per_flow_{suffix}"]
    r = extra[f"checkpoint_v2_over_json_{suffix}"]
    print(f"checkpoint bytes/flow at {suffix}: v1 JSON {j:.1f} B vs v2 {v:.1f} B => {r:.3f}x")
ratio = extra["checkpoint_v2_over_json_100k"]
if not ratio <= 0.5:
    raise SystemExit(f"FAIL: v2 checkpoint is {ratio:.3f}x of JSON at 100k flows — gate is <= 0.5x")
for k in ("snapshot_encode_mb_per_sec", "snapshot_decode_mb_per_sec"):
    if not extra.get(k, 0) > 0:
        raise SystemExit(f"FAIL: {k} missing or non-positive — snapshot codec bench did not run")
print(f"snapshot codec: encode {extra['snapshot_encode_mb_per_sec']:.0f} MiB/s, "
      f"decode {extra['snapshot_decode_mb_per_sec']:.0f} MiB/s "
      f"({extra['snapshot_flows']} flows, {extra['snapshot_block_bytes']} B block)")
EOF
echo "ok: BENCH_ingest.json baseline written ($(wc -c <BENCH_ingest.json) bytes)"

step "all checks passed"
