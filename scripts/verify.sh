#!/usr/bin/env bash
# Tier-1 verification gate (referenced from ROADMAP.md).
#
# Runs the canonical build/test/lint line, a formatting check, and a
# short smoke run of the instrumented `kpm report` roofline table on a
# small topological-insulator lattice (budget: ~10 s).
#
# Every stage runs through `step`, which times it; the footer prints a
# per-step timing table, and any failure names the step it died in.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STEP="(startup)"
STEP_START=""
STEP_TIMINGS=""

step() {
    local now
    now=$(date +%s%3N)
    if [[ -n "$STEP_START" ]]; then
        STEP_TIMINGS+=$(printf '%7d ms  %s\n' $((now - STEP_START)) "$CURRENT_STEP")$'\n'
    fi
    CURRENT_STEP="$1"
    STEP_START=$now
    echo "== $1 =="
}

finish() {
    local code=$?
    local now
    now=$(date +%s%3N)
    if [[ -n "$STEP_START" ]]; then
        STEP_TIMINGS+=$(printf '%7d ms  %s\n' $((now - STEP_START)) "$CURRENT_STEP")$'\n'
    fi
    echo "== step timing =="
    printf '%s' "$STEP_TIMINGS"
    if [[ $code -ne 0 ]]; then
        echo "verify: FAILED in step: $CURRENT_STEP (exit $code)" >&2
    fi
}
trap finish EXIT

step "tier-1: build + tests + clippy"
cargo build --release
cargo test -q
cargo test --workspace -q
cargo clippy --workspace -- -D warnings

step "tier-1 under fixed thread counts (KPM_THREADS=1, 4)"
# The same workspace tests on a serial global pool and on a 4-worker
# pool: results (moments, kernels, checkpoints) must be bitwise
# identical in both, so every suite has to pass in both.
KPM_THREADS=1 cargo test --workspace -q
KPM_THREADS=4 cargo test --workspace -q

step "static analysis: kpm-analyze gate (AST + dataflow passes, SARIF, ratchet)"
# Hard gate: any finding not covered by the committed baseline
# (ANALYZE_BASELINE.txt) is a failure. The machine-readable JSON report
# and a SARIF 2.1.0 document are kept as build artifacts either way —
# the gate invocation below writes target/kpm-analyze.sarif even when
# it fails, so CI can always upload it.
mkdir -p target
cargo run --release -q -p kpm-analyze -- --json > target/kpm-analyze-report.json || true
if cargo run --release -q -p kpm-analyze -- \
        --baseline ANALYZE_BASELINE.txt --sarif target/kpm-analyze.sarif; then
    echo "kpm-analyze: clean ($(grep -o '"files_scanned": [0-9]*' target/kpm-analyze-report.json)); SARIF at target/kpm-analyze.sarif"
else
    echo "kpm-analyze: findings not covered by ANALYZE_BASELINE.txt (SARIF at target/kpm-analyze.sarif)" >&2
    exit 1
fi

step "static analysis: schedule-explorer model check"
# Exhausts >=1000 interleavings of the 2-rank send/recv/dedup model
# (exactly-once + deadlock-freedom) plus the seeded-bug detectors.
cargo test -q --test static_analysis

step "static analysis: seeded-bug pass fixtures"
# Each dataflow pass must catch its planted bug (AB-BA deadlock,
# store/load ordering mismatch, par_* fp reduction, cross-crate panic
# path, lock behind a helper in a hot kernel loop) and stay quiet on
# the conforming twin.
cargo test -q -p kpm-analyze --test passes_fixtures

step "kpm-obs noop build stays dark"
cargo test -q -p kpm-obs --features noop --test noop_gate

step "noop build: bitwise-identical moments"
# The compile-time noop feature must not perturb the numbers: a DOS
# curve from a noop-built binary is bitwise identical to the
# instrumented build's (both single-threaded; the noop build lives in
# its own target dir so it cannot clobber the release artifacts).
cargo build -q --bin kpm --features kpm-obs/noop --target-dir target/noop-verify
./target/noop-verify/debug/kpm dos --nx 6 --ny 6 --nz 4 --moments 32 \
    --random 2 --threads 1 > target/dos-noop.csv
./target/release/kpm dos --nx 6 --ny 6 --nz 4 --moments 32 \
    --random 2 --threads 1 > target/dos-live.csv
cmp target/dos-noop.csv target/dos-live.csv
echo "noop and instrumented DOS output are bitwise identical"

step "formatting"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt unavailable; skipping format check"
fi

step "determinism: bitwise moments across formats and thread counts"
# CRS and matrix-free stencil runs must agree bit for bit at every
# thread count and sweep copy; the suite covers all three solver
# variants.
cargo test -q --test determinism

step "matrix-free: kpm dos --format stencil is byte-identical to --format crs"
# The stencil command never assembles a CRS: bounds, scale factors and
# every moment come from the site-blocked sweep, and the CSV must still
# equal the CRS run's byte for byte. nx = 2 is periodic (coincident
# partners, the merge path); the dots potential varies the diagonal.
for t in 1 2; do
    for f in crs stencil; do
        ./target/release/kpm dos --nx 2 --ny 6 --nz 5 --potential dots \
            --moments 64 --random 8 --threads "$t" --format "$f" \
            > "target/dos-$f-t$t.csv"
    done
    cmp "target/dos-crs-t$t.csv" "target/dos-stencil-t$t.csv"
done
cmp target/dos-crs-t1.csv target/dos-crs-t2.csv
echo "stencil and CRS DOS output are byte-identical at 1 and 2 threads"

step "sweep bodies: kpm dos is byte-identical with and without --no-simd"
# The CRS and stencil sweep is compiled three times from one source
# (baseline, AVX2, AVX-512); the widest copy the CPU executes runs and
# --no-simd forces the baseline copy — which is also all that exists off
# x86-64. Both must print the same bytes at width 1 (on 1,152 rows: two
# of its 1,024-row chunks), at a one-panel width, at one with mid-site
# tile edges (a 16-column pass and a panel under AVX-512) and at 33
# (two passes and a column), at 1 and 2 threads. The CLI has no flag
# for the copies in between: those pairs run in the determinism grid
# above and in prop_kernels, through the library's cap.
body_banner=$(./target/release/kpm report --nx 2 --ny 2 --nz 2 --moments 4 --random 1 2>&1)
body=$(grep -o 'sweep body = [a-z0-9]*' <<<"$body_banner" | head -n 1)
body=${body#sweep body = }
case "$body" in
avx512)
    grep -q 'lanes = 8' <<<"$body_banner"
    echo "this CPU has AVX-512: comparing the avx512 copy against the baseline copy"
    echo "avx2 vs baseline through the CLI DOES NOT RUN here (no flag picks the middle copy; the test grid caps to it)"
    ;;
avx2)
    grep -q 'lanes = 4' <<<"$body_banner"
    echo "this CPU has AVX2: comparing the avx2 copy against the baseline copy"
    echo "NO AVX-512 on this CPU: avx512 vs baseline DOES NOT RUN"
    ;;
baseline)
    grep -q 'lanes = 1' <<<"$body_banner"
    echo "NO AVX2 or AVX-512 on this CPU: both runs below take the baseline copy;"
    echo "avx2 vs baseline DOES NOT RUN, avx512 vs baseline DOES NOT RUN"
    ;;
*)
    echo "kpm report names no known sweep body: $body_banner" >&2
    exit 1
    ;;
esac
for f in crs stencil; do
    for r in 1 8 24 33; do
        for t in 1 2; do
            run="./target/release/kpm dos --nx 3 --ny 6 --nz 16 --potential dots \
                --moments 64 --random $r --threads $t --format $f"
            $run > "target/dos-body-wide.csv"
            $run --no-simd > "target/dos-body-base.csv"
            cmp target/dos-body-wide.csv target/dos-body-base.csv
        done
    done
done
echo "the $body and the baseline sweep body print identical DOS output (crs and stencil, R = 1, 8, 24 and 33, 1 and 2 threads)"
# Every entry of a lattice has an exactly-zero part, so from 16 columns
# on the runs above take the sweep's zero-skip arms on every row. The
# four-product arm at those widths is reached by a file whose entries
# have two non-zero parts: a 96-row Hermitian band matrix (the lower
# triangle, as the format stores it), at R = 17 — a 16-column pass and
# a column under AVX-512.
awk 'BEGIN {
    n = 96
    print "%%MatrixMarket matrix coordinate complex hermitian"
    print n, n, 3 * n - 8
    for (i = 1; i <= n; i++) {
        if (i > 7) print i, i - 7, 0.125 + i / 512, 0.25 - i / 1024
        if (i > 1) print i, i - 1, -0.5 + i / 256, 0.375 + i / 768
        print i, i, (i % 5 - 2) / 4, 0
    }
}' > target/general-complex.mtx
for t in 1 2; do
    run="./target/release/kpm dos target/general-complex.mtx --moments 64 --random 17 --threads $t"
    $run > "target/dos-body-wide.csv"
    $run --no-simd > "target/dos-body-base.csv"
    cmp target/dos-body-wide.csv target/dos-body-base.csv
done
echo "and on a general-complex Hermitian file (both parts non-zero off the diagonal) at R = 17"

step "set-up share: kpm dos --moments 2 vs the full dos_block_r8 command"
# The repo benchmark's setup_s is the wall time of the `--moments 2`
# twin (zero sweeps) of the command. Three alternating runs of twin and
# full command, medians of the raw wall times (not yardstick-normalised:
# read the share, not the milliseconds). The twin must be the same
# problem: same CSV header, same N / Nnz on the banner.
block_r8="./target/release/kpm dos --nx 48 --ny 48 --nz 24 --random 8 --threads 2"
twin_ms=""
full_ms=""
for _ in 1 2 3; do
    t0=$(date +%s%N)
    $block_r8 --moments 2 > target/setup-twin.csv 2> target/setup-twin.err
    t1=$(date +%s%N)
    $block_r8 --moments 96 > target/setup-full.csv 2> target/setup-full.err
    t2=$(date +%s%N)
    twin_ms+="$(((t1 - t0) / 1000000))"$'\n'
    full_ms+="$(((t2 - t1) / 1000000))"$'\n'
done
twin=$(printf '%s' "$twin_ms" | sort -n | sed -n 2p)
full=$(printf '%s' "$full_ms" | sort -n | sed -n 2p)
banner() { grep -o 'N = [0-9]*, Nnz = [0-9]*' "$1"; }
if [[ "$(head -n 1 target/setup-twin.csv)" != "$(head -n 1 target/setup-full.csv)" ]] \
        || [[ -z "$(banner target/setup-twin.err)" ]] \
        || [[ "$(banner target/setup-twin.err)" != "$(banner target/setup-full.err)" ]]; then
    echo "SET-UP TWIN AND FULL COMMAND DISAGREE (CSV header or banner N/Nnz):" >&2
    head -n 1 target/setup-twin.csv target/setup-full.csv >&2
    cat target/setup-twin.err target/setup-full.err >&2
    exit 1
fi
echo "set-up share on dos_block_r8 ($(banner target/setup-full.err)): ${twin} ms of ${full} ms = $((100 * twin / full)) %"

step "smoke: kpm report (achieved vs predicted roofline)"
# The banner names the copy that ran: the one the step above detected.
wide_report=$(./target/release/kpm report --nx 20 --ny 20 --nz 10 --moments 64 \
    --random 8 --machine IVB --llc-mib 0.5 2>&1)
echo "$wide_report"
grep -q "sweep body = $body" <<<"$wide_report"
echo "the report ran the $body sweep body"

step "smoke: kpm report with the --no-simd runtime cap"
# --no-simd runs the baseline copy of the sweep. The report must run end
# to end and print the lanes / sweep-body banner fields.
toggle_report=$(./target/release/kpm report --nx 20 --ny 20 --nz 10 --moments 64 \
    --random 8 --machine IVB --llc-mib 0.5 --no-simd 2>&1)
echo "$toggle_report" | grep -q 'lanes = 1'
echo "$toggle_report" | grep -q 'sweep body = baseline'
echo "the --no-simd report ran the baseline sweep body (lanes = 1)"

step "hostile flag and environment values: one 'kpm:' line, exit status 1, no panic, no matrix"
# Each of these used to panic, abort the process, be refused only after
# the matrix had been assembled and the banner printed, or (KPM_THREADS)
# quietly run on another thread count. Now stderr is a single line — so
# no banner came first — that names the flag or variable. Leading
# VAR=value words are the command's environment.
hostile() {
    local err rc=0 vars=()
    while [[ "${1:-}" == *=* ]]; do
        vars+=("$1")
        shift
    done
    err=$(env "${vars[@]}" ./target/release/kpm "$@" 2>&1 >/dev/null </dev/null) || rc=$?
    echo "${vars[*]} kpm $*  ->  exit $rc: $err"
    if [[ $rc -ne 1 || "$err" != kpm:* || "$err" == *$'\n'* || "$err" == *panicked* ]]; then
        echo "expected exit status 1 and one 'kpm: ...' line on stderr" >&2
        exit 1
    fi
}
lattice="--nx 48 --ny 48 --nz 24"
hostile dos $lattice --points 0
hostile dos $lattice --points 1
hostile dos $lattice --moments 3
hostile dos $lattice --random 0
hostile dos $lattice --threads 100000
hostile dos --nx 0
hostile count $lattice --from nan --to 0.5
hostile report $lattice --llc-mib nan
hostile report $lattice --llc-mib 1e-9
hostile serve --nx 4 --ny 4 --nz 2 --workers 100000
hostile KPM_THREADS=100000 dos $lattice
hostile KPM_THREADS=lots dos $lattice

step "service: chaos ledger (500 randomized schedules), late-binding batches"
# Exactly-once replies, bitwise batched moments, and a consistent
# admitted==replied ledger under crashes, slow solves, lock poisoning,
# deadline storms, and both shutdown modes.
cargo test -q --test service_chaos
# Late binding, by name and out loud: sustained overload is shed at the
# admission queue (admitted / rejected / most unanswered at once), and
# requests that arrive during a solve share the next batch; the closed
# loop behind the second prints requests, batches, columns per solved
# batch and lanes filled (2.9 columns per batch when batches were sealed
# on arrival, 4.1 sealed when a worker is free, on `svc_mixed`).
cargo test -q --test service -- --nocapture \
    sustained_overload_is_shed_at_the_admission_queue \
    requests_that_arrive_during_a_solve_share_the_next_batch

step "smoke: kpm serve (batched mixed queries + typed backpressure)"
# A mixed DOS/LDOS batch must coalesce and answer, a zero-deadline
# request must be shed with a typed reason and a retry hint, and the
# final ledger must balance.
./target/release/kpm generate --nx 4 --ny 4 --nz 2 --out target/verify-serve.mtx
serve_out=$(printf 'dos 1 2 64\nldos 3 64\ndos 9 1 64 0\n' | \
    ./target/release/kpm serve target/verify-serve.mtx)
echo "$serve_out"
echo "$serve_out" | grep -q '"status": "ok"'
echo "$serve_out" | grep -q '"reason": "past_deadline"'
echo "$serve_out" | grep -q '"retry_after_ms"'
echo "$serve_out" | grep -q '"consistent": true'

step "smoke: request tracing, kpm stats, kpm trace-report"
# An instrumented serve run must put a trace id and an exact stage
# breakdown on every reply and burn rates on the ledger; the exports
# must round-trip through the Prometheus exposition and the critical-
# path analyzer (which fails on orphan spans).
traced_out=$(printf 'dos 1 2 64\nldos 3 64\ngreen 2 1 32\n' | \
    ./target/release/kpm serve target/verify-serve.mtx \
        --metrics-out target/verify-metrics.jsonl \
        --trace-out target/verify-trace.json \
        --flight-recorder target/verify-flight)
echo "$traced_out" | grep -q '"trace": '
echo "$traced_out" | grep -q '"stages_us": '
echo "$traced_out" | grep -q '"slo": '
stats_out=$(./target/release/kpm stats target/verify-metrics.jsonl)
echo "$stats_out" | grep -q '^kpm_svc_latency_ns{scope="total",quantile="0.99"}'
echo "$stats_out" | grep -q '^kpm_slo_burn_rate{route="dos"}'
report_out=$(./target/release/kpm trace-report target/verify-trace.json --machine IVB)
echo "$report_out"
echo "$report_out" | grep -q 'attribution: queue'

echo "verify: OK"
