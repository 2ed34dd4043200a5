#!/usr/bin/env bash
# The repo's benchmark, one command (see BENCHMARK.json, benchmark/README.md):
#
#   benchmark/run.sh                       every workload, untraced + traced, 20 s windows
#   benchmark/run.sh --workload NAME       one workload at full length
#   benchmark/run.sh --seed N              another seed (default 1)
#   benchmark/run.sh --smoke               fmt + clippy on benchmark/, then 3 s windows,
#                                          1 cold start, 3 layer-pass repetitions
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one measured run, as BENCHMARK.json's driver calls it
#
# Builds the root release binaries and the load generator (offline),
# spawns the unmodified cqd2-serve, checks every reply against an
# oracle, prints `workload metric value unit n=samples` lines and ends
# with one JSON line. Exit status is non-zero on any oracle mismatch,
# transport error or unclean server exit.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/core ]; then
    echo "benchmark/run.sh: $root is not a checkout of the repository (no Cargo.toml / crates/core): nothing to benchmark" >&2
    exit 2
fi

# Everything lands under the target directory (gitignored): the root
# build where `cargo build` always puts it, the generator's own build
# and the run's outputs beside it.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac

smoke=0
for arg in "$@"; do
    if [ "$arg" = "--smoke" ]; then smoke=1; fi
done

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet >&2
CARGO_TARGET_DIR="$target/benchmark" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [ "$smoke" = 1 ]; then
    (cd benchmark && cargo fmt --check >&2)
    CARGO_TARGET_DIR="$target/benchmark" cargo clippy --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- -D warnings >&2
fi

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/benchmark/release/cqd2-bench" \
    --server "$target/release/cqd2-serve" \
    --out "$target/benchmark-out" \
    --commit "$commit" \
    "$@"
