#!/usr/bin/env bash
# Builds the `reproduce` binary and the benchmark from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash ledger/run.sh --workload http_zipf --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p pvc-report --bin reproduce >&2
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path ledger/Cargo.toml >&2
exec "$target/release/pvc-ledger" --reproduce "$target/release/reproduce" "$@"
