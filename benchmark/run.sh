#!/usr/bin/env bash
# The one command of the benchmark described by ../BENCHMARK.json.
#
#   benchmark/run.sh --seed S [--workload W] [--seconds N] [--trace [0|1]]
#   benchmark/run.sh --noise-check [--runs N] [--seed S]
#
# Builds cots-serve (the repository's release profile) and the driver in
# this directory, runs the workloads, prints every metric as
# `workload/metric value unit`, writes benchmark/out/results.json with a
# host stamp, and exits non-zero if any correctness check fails. With a
# single --workload the last line of stdout is the JSON object the
# benchmark contract asks for. See README.md.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it so both builds below share one absolute directory.
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"

OUT="${COTS_BENCH_DIR:-$HERE/out}"
mkdir -p "$OUT"
export COTS_BENCH_RUN_DIR="$OUT/run-$$"

driver=""
cleanup() {
  # Reached on every exit path, Ctrl-C and SIGTERM included: stop the
  # driver, kill and forget every server it left a pid file for, and
  # remove the run's data directories.
  [ -n "$driver" ] && kill "$driver" 2>/dev/null || true
  for f in "$COTS_BENCH_RUN_DIR"/*.pid; do
    [ -e "$f" ] && kill -9 "$(cat "$f")" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$COTS_BENCH_RUN_DIR"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Build from source, offline. Output goes to stderr so that stdout ends
# with the result line.
(cd "$ROOT" && cargo build --release --offline -p cots-serve --bin cots-serve) >&2
cargo build --release --offline --manifest-path "$HERE/Cargo.toml" >&2
SERVER="$TARGET/release/cots-serve"
DRIVER="$TARGET/release/cots-benchmark"

export COTS_BENCH_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
export COTS_BENCH_GIT_SHA="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
export COTS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export COTS_BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Run the driver in the background and wait for it, so the traps above
# fire while it runs.
drive() {
  "$DRIVER" "$@" &
  driver=$!
  local status=0
  wait "$driver" || status=$?
  driver=""
  return "$status"
}

if [ "${1:-}" = "--noise-check" ]; then
  shift
  runs=3
  seed=1
  while [ $# -gt 0 ]; do
    case "$1" in
      --runs) runs="$2"; shift 2 ;;
      --seed) seed="$2"; shift 2 ;;
      *) echo "run.sh --noise-check: unknown flag $1" >&2; exit 2 ;;
    esac
  done
  [ "$runs" -ge 3 ] || { echo "run.sh --noise-check: --runs must be at least 3" >&2; exit 2; }
  noise="$OUT/noise"
  rm -rf "$noise" && mkdir -p "$noise"
  a=""; b=""
  # Two sets of the same build, alternating A B A B …, so drift in the
  # host hits both sets alike. Run i of either set uses seed + i - 1: the
  # spreads then include what a change of seed does, as they do for the
  # driver that accepts or rejects the benchmark.
  for i in $(seq 1 "$runs"); do
    for set in A B; do
      echo "noise-check: run $i of set $set" >&2
      drive run --server-bin "$SERVER" --out "$OUT" --seed "$((seed + i - 1))" \
        --results "$noise/$set$i.json" > "$noise/$set$i.log"
      if [ "$set" = A ]; then a="$a,$noise/$set$i.json"; else b="$b,$noise/$set$i.json"; fi
    done
  done
  echo "# Noise check: two sets of $runs full runs of one build, alternating"
  echo
  echo "host: nproc=$(nproc), $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs)," \
       "git $COTS_BENCH_GIT_SHA, $COTS_BENCH_RUSTC, $COTS_BENCH_DATE, seeds $seed..$((seed + runs - 1))"
  echo
  drive noise-check --bounds "$ROOT/BENCHMARK.json" --a "${a#,}" --b "${b#,}"
  exit $?
fi

drive run --server-bin "$SERVER" --out "$OUT" "$@"
