#!/usr/bin/env bash
# Build the benchmark (release, offline, nothing outside bench/ touched)
# and run it.
#
#   bench/run.sh [--seed S] [--quick]
#       every workload: set-up, samples, layer walks; prints every metric
#       by name with its unit and writes bench/results/<git-sha>-<seed>.json
#   bench/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run under the contract in BENCHMARK.json: the last line of
#       stdout is one JSON object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

# Build chatter goes to stderr: stdout belongs to the report.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bench="$target/release/dcape-bench"

for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bench" run "$@"
    fi
done
sha="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo nogit)"
exec "$bench" all --tag "$sha" "$@"
