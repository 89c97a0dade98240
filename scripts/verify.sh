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

step "the benchmark builds against the library"
# `benchmark/` is a workspace of its own that no other step compiles;
# it names library items (`KpmMatrix`, `kpm_moments`,
# `Service::register_matrix`, `LedgerSnapshot`), so a change to one of
# them must keep it building.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

step "tier-1 under fixed thread counts (KPM_THREADS=1, 4)"
# The same workspace tests on a serial global pool and on a 4-worker
# pool: results (moments, kernels, checkpoints) must be bitwise
# identical in both, so every suite has to pass in both.
KPM_THREADS=1 cargo test --workspace -q
KPM_THREADS=4 cargo test --workspace -q

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

step "determinism: bitwise moments across thread counts, sweep copies, solver variants and checkpoint/restart"
# Moments must agree bit for bit at every thread count and sweep copy,
# for all three solver variants, and a checkpointed run — crashed under
# one sweep copy and resumed under another — with the uninterrupted one.
cargo test -q --test determinism

step "AddressSanitizer: the kernels' reads under ASan (nightly)"
# The lane walk reads the neighbours' rows of `x` through the raw
# pointers of `Units`, and the AVX2 and AVX-512 unit steps load them
# with intrinsics; a read past `x` would go unnoticed in the padding
# behind a block vector's rows. The pool hands its workers a job on
# the caller's stack through a lifetime-erased reference. Here
# kpm-sparse's, kpm-num's and the pool's tests and the determinism grid
# run instrumented. Without a nightly cargo or its ASan runtime the
# step prints SKIPPED and the gate goes on.
asan_rt="$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/x86_64-unknown-linux-gnu/lib/librustc-nightly_rt.asan.a"
if cargo +nightly --version >/dev/null 2>&1 && [[ -f "$asan_rt" ]]; then
    asan_test() {
        RUSTFLAGS=-Zsanitizer=address ASAN_OPTIONS=allocator_may_return_null=1 \
            cargo +nightly test -q --release --offline \
            --target x86_64-unknown-linux-gnu --target-dir target/asan "$@"
    }
    asan_test -p kpm-sparse -p kpm-num -p rayon
    asan_test --test determinism
else
    echo "##### SKIPPED: AddressSanitizer step (no cargo +nightly or no $asan_rt) #####"
fi

step "one operator: kpm dos --format stencil is byte-identical to --format crs"
# A generated lattice runs as its CRS form whichever --format names:
# coded when it has one, plain otherwise. Both formats must print the
# same CSV byte for byte, and the banners must show what ran: 5x3x3 has
# a coded form (its stencil banner names `walk = sites`); nx = 2 is
# periodic (coincident partners, the merge path) and leaves 2x6x5 none
# (its stencil banner names `values = plain, walk = entries`). The dots
# potential varies the diagonal.
format_cmp() { # name, lattice flags
    for t in 1 2; do
        for f in crs stencil; do
            ./target/release/kpm dos $2 --potential dots \
                --moments 64 --random 8 --threads "$t" --format "$f" \
                > "target/dos-$1-$f-t$t.csv" 2> "target/dos-$1-$f-t$t.err"
        done
        cmp "target/dos-$1-crs-t$t.csv" "target/dos-$1-stencil-t$t.csv"
        grep -q 'format = stencil' "target/dos-$1-stencil-t$t.err"
    done
    cmp "target/dos-$1-crs-t1.csv" "target/dos-$1-crs-t2.csv"
}
format_cmp coded "--nx 5 --ny 3 --nz 3"
grep -q 'format = stencil, values = coded ([0-9]* distinct), walk = sites' \
    target/dos-coded-stencil-t1.err
format_cmp plain "--nx 2 --ny 6 --nz 5"
grep -q 'format = stencil, values = plain, walk = entries' target/dos-plain-stencil-t1.err
echo "stencil and CRS DOS output are byte-identical at 1 and 2 threads, on the coded 5x3x3 lattice and on the plain 2x6x5 one"

step "sweep bodies: kpm dos is byte-identical with and without --no-simd"
# The one sweep is compiled three times from one source
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
    for r in 1 2 4 6 8 24 33; do
        for t in 1 2; do
            run="./target/release/kpm dos --nx 3 --ny 6 --nz 16 --potential dots \
                --moments 64 --random $r --threads $t --format $f"
            $run > "target/dos-body-wide.csv"
            $run --no-simd > "target/dos-body-base.csv"
            cmp target/dos-body-wide.csv target/dos-body-base.csv
        done
    done
done
echo "the $body and the baseline sweep body print identical DOS output (crs and stencil, R = 1, 2, 4, 6, 8, 24 and 33, 1 and 2 threads)"
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

step "benchmark bytes: the four dos command lines print their recorded CSVs"
# The dos command lines of benchmark/src/workloads.rs at --seed 2015, and
# the sha256 of each CSV as EXPERIMENTS.md records it ("The coded CRS
# stores no entries"): a change that is not meant to move a result must
# leave all four as they are. Only the change of the start-vector draw
# (ROADMAP item 4) may record new ones. About 2 s in release.
while read -r name want args; do
    got=$(./target/release/kpm $args --seed 2015 2>/dev/null | sha256sum | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
        echo "$name: CSV sha256 $got, recorded $want" >&2
        exit 1
    fi
    echo "$name: CSV sha256 ${want:0:8}… as recorded"
done <<'EOF'
dos_stream_r1 c6f35793b546bf24c83455511adfa239f5cff7cbb1b7370dff62a74f60fe3b76 dos --nx 48 --ny 48 --nz 24 --moments 512 --random 1 --threads 1
dos_block_r8 abf752f16116b3fe0813e6ad5173e66d6f646d5885f3cf02b25daf6f67fc33a9 dos --nx 48 --ny 48 --nz 24 --moments 96 --random 8 --threads 2
dos_stencil_r8 abf752f16116b3fe0813e6ad5173e66d6f646d5885f3cf02b25daf6f67fc33a9 dos --nx 48 --ny 48 --nz 24 --moments 96 --random 8 --threads 2 --format stencil
dos_incore_r32 07b42f4dd8aa1ec3c25f8cb448962f3462f55b2d0f30d8c27d0ea2f78c0b67c3 dos --nx 20 --ny 20 --nz 10 --moments 256 --random 32 --threads 1
EOF

step "narrow-width bytes: the lane walk's 2- and 4-lane steps print their recorded CSVs"
# None of the four lines above runs a 2- or 4-column panel. These run the
# svc_mixed lattice at 2, 3, 4 and 6 columns (2 and 4 whole, 3 as 2 + 1,
# 6 as 4 + 2) under both formats; their sha256s were taken from the
# commit before the AVX-512 copy's narrow steps read decoded slots.
while read -r name want args; do
    got=$(./target/release/kpm $args --seed 2015 2>/dev/null | sha256sum | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
        echo "$name: CSV sha256 $got, recorded $want" >&2
        exit 1
    fi
    echo "$name: CSV sha256 ${want:0:8}… as recorded"
done <<'EOF'
r2 d9b504502fef6b018c9d5e20d12a8cefcd6b86e8a09baa495defa14c7e12e6e2 dos --nx 12 --ny 12 --nz 6 --moments 128 --random 2
r3 bf79f51b7ec917a041fccff5bdb9081c5fdf3d397a213bddf247c52a8125f3b8 dos --nx 12 --ny 12 --nz 6 --moments 128 --random 3
r4 3a793cfa3e66e8d25d2329e4afecbba86dda62e4de19f4264234bee3533e6c58 dos --nx 12 --ny 12 --nz 6 --moments 128 --random 4
r6 610329e9a9058b009ffd8d61a183225d3a24c610c9a7e8118997596f73c77e5a dos --nx 12 --ny 12 --nz 6 --moments 128 --random 6
r2_stencil d9b504502fef6b018c9d5e20d12a8cefcd6b86e8a09baa495defa14c7e12e6e2 dos --nx 12 --ny 12 --nz 6 --moments 128 --random 2 --format stencil
EOF

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
# A coded lattice CRS stores no entries: its rows are regenerated from
# the site view. Written out again from the plain read-back, each
# lattice must give the same file, and `kpm info` the same lines.
for name in dots odd; do
    lattice="${name}_lattice"
    ./target/release/kpm generate "target/values-$name.mtx" \
        --out "target/values-$name-again.mtx" > /dev/null
    cmp "target/values-$name.mtx" "target/values-$name-again.mtx"
    ./target/release/kpm info ${!lattice} > "target/info-$name-coded.txt"
    ./target/release/kpm info "target/values-$name.mtx" > "target/info-$name-plain.txt"
    cmp "target/info-$name-coded.txt" "target/info-$name-plain.txt"
done
for t in 1 2; do
    for r in 1 8 17 33; do
        values_cmp "$dots_lattice" target/values-dots.mtx "$r" "$t"
    done
    values_cmp "$odd_lattice" target/values-odd.mtx 1 "$t"
done
echo "$(grep -o 'coded ([0-9]* distinct), walk = sites ([0-9]* codes)' target/dos-values-coded.err) and plain values print identical DOS output (3x6x16 dots at R = 1, 8, 17 and 33, 5x3x3 at R = 1, 1 and 2 threads), .mtx files and kpm info lines"

step "set-up share: kpm dos --moments 2 vs the full dos_block_r8 and dos_stream_r1 commands"
# The repo benchmark's setup_s is the wall time of the `--moments 2`
# twin (zero sweeps) of the command. Three alternating runs of twin and
# full command, medians of the raw wall times (not yardstick-normalised:
# read the share, not the milliseconds). The twin must be the same
# problem: same CSV header, same N / Nnz on the banner. One more traced
# twin tiles set-up into its spans, printed in ms; a span missing from
# the trace fails the step, a slow one does not.
banner() { grep -o 'N = [0-9]*, Nnz = [0-9]*' "$1"; }
span_ms() {
    local dur
    dur=$(grep -o "\"name\":\"$2\",[^}]*\"dur\":[0-9.]*" "$1" | head -n 1 | sed 's/.*"dur"://' || true)
    if [[ -z "$dur" ]]; then
        echo "SPAN $2 MISSING FROM THE TRACE $1" >&2
        exit 1
    fi
    awk -v us="$dur" 'BEGIN { printf "%.3f", us / 1000 }'
}
setup_share() {
    local name=$1 moments=$2 command=$3 twin_ms="" full_ms="" t0 t1 t2 twin full spans="" span
    for _ in 1 2 3; do
        t0=$(date +%s%N)
        $command --moments 2 > target/setup-twin.csv 2> target/setup-twin.err
        t1=$(date +%s%N)
        $command --moments "$moments" > target/setup-full.csv 2> target/setup-full.err
        t2=$(date +%s%N)
        twin_ms+="$(((t1 - t0) / 1000000))"$'\n'
        full_ms+="$(((t2 - t1) / 1000000))"$'\n'
    done
    twin=$(printf '%s' "$twin_ms" | sort -n | sed -n 2p)
    full=$(printf '%s' "$full_ms" | sort -n | sed -n 2p)
    if [[ "$(head -n 1 target/setup-twin.csv)" != "$(head -n 1 target/setup-full.csv)" ]] \
            || [[ -z "$(banner target/setup-twin.err)" ]] \
            || [[ "$(banner target/setup-twin.err)" != "$(banner target/setup-full.err)" ]]; then
        echo "SET-UP TWIN AND FULL COMMAND DISAGREE ON $name (CSV header or banner N/Nnz):" >&2
        head -n 1 target/setup-twin.csv target/setup-full.csv >&2
        cat target/setup-twin.err target/setup-full.err >&2
        exit 1
    fi
    echo "set-up share on $name ($(banner target/setup-full.err)): ${twin} ms of ${full} ms = $((100 * twin / full)) %"
    $command --moments 2 --trace-out "target/setup-$name.json" > /dev/null 2>&1
    for span in setup.assemble setup.bounds setup.format solver.start solver.init; do
        spans+=" $span $(span_ms "target/setup-$name.json" "$span") ms,"
    done
    echo "  traced twin:${spans%,}"
}
setup_share dos_block_r8 96 "./target/release/kpm dos --nx 48 --ny 48 --nz 24 --random 8 --threads 2"
setup_share dos_stream_r1 512 "./target/release/kpm dos --nx 48 --ny 48 --nz 24 --random 1 --threads 1"

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

step "hostile flags, environment values, .mtx size lines and values: one 'kpm:' line, exit status 1, no panic, no matrix; hostile serve lines: typed replies, exit 0"
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
# Request sizes are promises too: a value that sizes a buffer the host
# cannot allocate is refused naming its flag, after the lattice is built
# and before the solver would abort allocating it (exit 134 before).
# 10^11 random vectors ask for 3.5·10^17 bytes, which no host maps; 10^9
# moments (η: 128 GB) and 10^10 points (curve: 160 GB) run only where
# that allocation must fail.
must_fail() {
    [[ $(cat /proc/sys/vm/overcommit_memory) != 1 && $((ram_swap_kib * 1024)) -lt $1 ]]
}
hostile dos $lattice --random 99999999999
if must_fail 128000000000; then hostile dos $lattice --moments 1000000000; fi
if must_fail 160000000000; then hostile dos $lattice --points 10000000000; fi
# kpm serve answers each request line in its place: a line that does not
# parse (which used to end the process with no reply to anyone) and a
# request too large to allocate get typed error replies, the good lines
# around them are served, and the process exits 0 with a balanced ledger.
./target/release/kpm generate --nx 4 --ny 4 --nz 2 --out target/hostile-serve.mtx
serve_lines='dos 1 2 64\nbogus line\nldos 3 64\ndos 1 99999999999 64\n'
if must_fail 32000000000; then serve_lines+='dos 1 2 1000000000\n'; fi
serve_out=$(printf "$serve_lines" | ./target/release/kpm serve target/hostile-serve.mtx)
echo "$serve_out"
[[ $(echo "$serve_out" | grep -c '"status": "ok"') -eq 2 ]]
echo "$serve_out" | grep -q '"request": 1, "status": "error", "error": "cannot parse request'
echo "$serve_out" | grep -q '"status": "error", "error": "solver error: invalid parameter `num_random`'
if must_fail 32000000000; then
    echo "$serve_out" | grep -q '"status": "error", "error": "solver error: invalid parameter `num_moments`'
fi
echo "$serve_out" | grep -q '"consistent": true'

step "service: chaos ledger (500 randomized schedules), late-binding batches"
# Exactly-once replies, bitwise batched moments, and a consistent
# admitted==replied ledger under slow solves, lock poisoning,
# deadline storms, and both shutdown modes.
cargo test -q --test service_chaos
# Late binding, by name and out loud: sustained overload is shed at the
# admission queue (admitted / rejected / most unanswered at once), and
# requests that arrive during a solve share the next batch; the closed
# loop behind the second prints requests, batches, columns per solved
# batch and lanes filled. On `svc_mixed` (`service.batch_width_mean`):
# 2.9 columns per batch when batches were sealed on arrival, 3.4 when
# sealed once a worker was free and a 500 µs window had passed, 3.1 now
# that a batch is sealed the moment a worker is free — narrower, and
# about ×0.9 in wall time, because no free worker waits out a window.
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
# A batch is sealed the moment a worker is free: there is no coalescing
# window to set, and its old flag is an unknown flag.
window_err=$(./target/release/kpm serve target/verify-serve.mtx --window-us 1 2>&1 </dev/null) && exit 1
echo "$window_err" | grep -q "^kpm: unknown flag '--window-us'"

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
