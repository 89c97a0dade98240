#!/bin/sh
# Runs the untraced benchmark twice on the same build and fails if an
# end-to-end metric of a workload differs by more than its bound or a
# run is not correct, then the traced run once and fails if a per-layer
# metric is missing, a span has no parent or a warning was raised.
# Arguments are passed on: --workload NAME, --seed S, --seconds N.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- selfcheck "$@"
