#!/usr/bin/env bash
# Tier-1 verification gate (referenced from ROADMAP.md).
#
# Runs the canonical build/test/lint line, a formatting check, the
# paper's numbers through `report_all` (budget: ~15 s with its release
# build warm; it exits 1 when a reproduced number leaves the paper's
# tolerance), the byte-for-byte CLI comparisons (stencil vs CRS, sweep
# bodies, coded vs plain values), and a short smoke run of the
# instrumented `kpm report` roofline table on a small
# topological-insulator lattice (budget: ~10 s).
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

step "static analysis: schedule-explorer model check"
# The explorer's core tests: >=1000 interleavings of a clean two-thread
# send/recv program without truncation, a preemption bound that cuts the
# count and stays clean, and a recv-before-send deadlock reported with
# its schedule. The same suite holds the kpm-analyze lint gate
# (no_panic, safety_comment, hot_loop_alloc, panic_path, the marker
# audits), which tier-1 above already ran; its rule fixtures run with
# `cargo test --workspace`.
cargo test -q --test static_analysis

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

step "paper numbers (report_all)"
# One line per reproduced number of the paper's evaluation, checked
# against the paper's value with a tolerance from the paper's wording;
# a miss exits 1 and names its line.
cargo run --release --offline -q -p kpm-bench --bin report_all

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

step "value storage: a coded lattice CRS is byte-identical to the same matrix read back plain"
# The lattice generator stores the CRS values as a table of distinct
# values and a byte per entry, and its sweep walks the lattice's 4x4
# site blocks at every width; a Matrix Market file is stored plain and
# its sweep walks the entries. The same lattice both ways must print the
# same CSV. The banners must name the two storages and the two walks, or
# the comparison would be plain against plain, or the entry chain
# against itself. The 5x3x3 lattice has an odd number of sites, so its
# site walk ends on one unpaired site.
values_cmp() { # lattice flags, the same lattice as a file, R, threads
    ./target/release/kpm dos $1 --moments 64 --random "$3" --threads "$4" \
        > target/dos-values-coded.csv 2> target/dos-values-coded.err
    ./target/release/kpm dos "$2" --moments 64 --random "$3" --threads "$4" \
        > target/dos-values-plain.csv 2> target/dos-values-plain.err
    grep -q 'values = coded ([0-9]* distinct), walk = sites' target/dos-values-coded.err
    grep -q 'values = plain, walk = entries' target/dos-values-plain.err
    cmp target/dos-values-coded.csv target/dos-values-plain.csv
}
dots_lattice="--nx 3 --ny 6 --nz 16 --potential dots"
odd_lattice="--nx 5 --ny 3 --nz 3"
./target/release/kpm generate $dots_lattice --out target/values-dots.mtx 2>/dev/null
./target/release/kpm generate $odd_lattice --out target/values-odd.mtx 2>/dev/null
for t in 1 2; do
    for r in 1 8 17 33; do
        values_cmp "$dots_lattice" target/values-dots.mtx "$r" "$t"
    done
    values_cmp "$odd_lattice" target/values-odd.mtx 1 "$t"
done
echo "$(grep -o 'coded ([0-9]* distinct), walk = sites ([0-9]* codes)' target/dos-values-coded.err) and plain values print identical DOS output (3x6x16 dots at R = 1, 8, 17 and 33, 5x3x3 at R = 1, 1 and 2 threads)"

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
# The banner names the copy that ran: the one the step above detected,
# and the walk of the lattice's coded CRS: its site blocks.
wide_report=$(./target/release/kpm report --nx 20 --ny 20 --nz 10 --moments 64 \
    --random 8 --machine IVB --llc-mib 0.5 2>&1)
echo "$wide_report"
grep -q "sweep body = $body" <<<"$wide_report"
grep -q "walk = sites ([0-9]* codes)" <<<"$wide_report"
echo "the report ran the $body sweep body and names the site walk"

step "smoke: kpm report with the --no-simd runtime cap"
# --no-simd runs the baseline copy of the sweep. The report must run end
# to end and print the lanes / sweep-body banner fields.
toggle_report=$(./target/release/kpm report --nx 20 --ny 20 --nz 10 --moments 64 \
    --random 8 --machine IVB --llc-mib 0.5 --no-simd 2>&1)
echo "$toggle_report" | grep -q 'lanes = 1'
echo "$toggle_report" | grep -q 'sweep body = baseline'
echo "the --no-simd report ran the baseline sweep body (lanes = 1)"

step "hostile flags, environment values, .mtx size lines and values: one 'kpm:' line, exit status 1, no panic, no matrix"
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
# Matrix Market size lines are promises, not data: 10^14 entries (the
# reader used to reserve 2.4 PB for them), a dimension past the 32-bit
# column indices, and 4·10^9 rows whose 32 GB of row pointers cannot be
# allocated. Each is a typed error, not an abort. A host with 32 GB of
# RAM + swap (or with overcommit always on) could grant the row
# pointers, and the run would fill them: the third file runs only where
# the allocation must fail.
mm="%%MatrixMarket matrix coordinate real general"
printf '%s\n2 2 100000000000000\n1 1 1\n' "$mm" > target/hostile-nnz.mtx
printf '%s\n5000000000 5000000000 1\n1 1 1\n' "$mm" > target/hostile-dim.mtx
printf '%s\n4000000000 4000000000 1\n1 1 1\n' "$mm" > target/hostile-rows.mtx
mtx_cases="nnz dim"
ram_swap_kib=$(awk '/^(MemTotal|SwapTotal):/ { s += $2 } END { print s }' /proc/meminfo)
if [[ $ram_swap_kib -lt 31250000 && $(cat /proc/sys/vm/overcommit_memory) != 1 ]]; then
    mtx_cases+=" rows"
else
    echo "the 4e9-row file DOES NOT RUN: this host could grant its row pointers"
fi
# A value that is not finite is refused by the reader, naming its line:
# `nan` used to fail the Hermitian check on entry (0, 0) itself, and
# `inf` ran a sweep before the solver's non-finite guard stopped it.
printf '%s\n1 1 1\n1 1 nan\n' "%%MatrixMarket matrix coordinate real symmetric" > target/hostile-nan.mtx
printf '%s\n1 1 1\n1 1 inf\n' "%%MatrixMarket matrix coordinate real symmetric" > target/hostile-inf.mtx
mtx_cases+=" nan inf"
for f in $mtx_cases; do
    hostile dos "target/hostile-$f.mtx"
    hostile serve "target/hostile-$f.mtx"
done

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
# One `# TYPE` per family, and the service latency is a summary.
dup_types=$(echo "$stats_out" | grep '^# TYPE' | awk '{print $3}' | sort | uniq -d)
if [ -n "$dup_types" ]; then
    echo "kpm stats types a family twice: $dup_types" >&2
    exit 1
fi
echo "$stats_out" | grep -q '^# TYPE kpm_svc_latency_ns summary'
report_out=$(./target/release/kpm trace-report target/verify-trace.json --machine IVB)
echo "$report_out"
echo "$report_out" | grep -q 'attribution: queue'

echo "verify: OK"
