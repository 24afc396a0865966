#!/usr/bin/env bash
# The benchmark's one command. Builds the daemon under test and the
# benchmark package (offline), then runs the benchmark binary:
#
#   benchmark/run.sh                                  all four workloads -> out/results.json
#   benchmark/run.sh --workload live_fetch            one workload
#   benchmark/run.sh --seed 7 --trace 1               per-layer rows + out/trace.json
#   benchmark/run.sh --quick                          a tenth of the op counts
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
#
# Exit code: 0 ok, 1 a correctness check failed, anything else: no run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target dir for both builds when the caller names one (relative means
# relative to where we were called from); otherwise the root build goes
# where `cargo build --release` at the root puts it, and the benchmark
# package next to it, so neither disturbs the other.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    sut_dir="$CARGO_TARGET_DIR"
    bench_dir="$CARGO_TARGET_DIR"
else
    sut_dir="$root/target"
    bench_dir="$root/target/benchmark"
fi

cargo build --quiet --release --offline \
    --manifest-path "$root/Cargo.toml" --target-dir "$sut_dir" \
    -p moqdns-relayd --bin moqdns-relayd >&2
cargo build --quiet --release --offline \
    --manifest-path "$here/Cargo.toml" --target-dir "$bench_dir" >&2

export MOQDNS_RELAYD="$sut_dir/release/moqdns-relayd"
export MOQDNS_BENCH_OUT="$here/out"
export MOQDNS_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$bench_dir/release/moqdns-benchmark" "$@"
