#!/usr/bin/env bash
# Wall time of one test mode, measured on built test binaries.
#
#   scripts/test_wall.sh <tier1|threads4|4k> [rounds]
#
#   tier1     cargo test -q, the default Config
#   threads4  cargo test -q under EVIREL_THREADS=4 (exchange paths)
#   4k        the executor-facing packages under EVIREL_BUFFER_BYTES=4096
#             and EVIREL_THREADS=4 (every build side spills, every pool
#             evicts)
#
# It builds the test binaries first (`cargo test --no-run`), so the
# times exclude compilation, then runs the mode `rounds` times (default
# 1), printing per round its seconds and the passed/failed counts summed
# over every `test result:` line. A failing round prints cargo's output
# and makes the script exit 1. CI's test steps call it, so the 4k mode's
# package list is defined here once.
set -euo pipefail

mode=${1:?usage: scripts/test_wall.sh <tier1|threads4|4k> [rounds]}
rounds=${2:-1}
packages=()
case "$mode" in
  tier1) ;;
  threads4) export EVIREL_THREADS=4 ;;
  4k)
    export EVIREL_BUFFER_BYTES=4096 EVIREL_THREADS=4
    packages=(-p evirel-plan -p evirel-query -p evirel-integrate -p evirel-store -p evirel-serve)
    ;;
  *)
    echo "unknown mode $mode: tier1, threads4 or 4k" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."
log="${CARGO_TARGET_DIR:-target}/test_wall-$mode.log"
cargo test -q "${packages[@]}" --no-run
status=0
for round in $(seq "$rounds"); do
  start=$(date +%s.%N)
  if ! cargo test -q "${packages[@]}" >"$log" 2>&1; then
    cat "$log"
    status=1
  fi
  end=$(date +%s.%N)
  awk -v mode="$mode" -v round="$round" -v start="$start" -v end="$end" '
    /^test result:/ { passed += $4; failed += $6 }
    END { printf "%s round %d: %.1f s, %d passed, %d failed\n", mode, round, end - start, passed, failed }
  ' "$log"
done
exit "$status"
