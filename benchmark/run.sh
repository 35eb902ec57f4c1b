#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]        every workload: end-to-end
#                    [--repeat K] [--smoke] [--bless]  run, then traced replay
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one workload; the result
#                                                     object is the last line
#
# Builds the root workspace's release evirel-serve and this package's
# two binaries (into $CARGO_TARGET_DIR, default <repo>/target), then
# hands over to loadgen. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/serve" ]; then
    echo "run.sh: $root is not a checkout of the repository (no Cargo.toml / crates/serve);" \
         "the benchmark builds evirel-serve from source" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The traced replay is needed unless this is a single end-to-end run.
needs_replay=1
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "0" ]; then needs_replay=0; fi
    prev="$arg"
done

cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p evirel-serve --bin evirel-serve >&2
# loadgen depends on nothing in the repository: it builds even when an
# API change has broken the replay's adapter.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --bin loadgen >&2
replay_bin="$target/release/replay"
if ! cargo build --release --offline --manifest-path "$here/Cargo.toml" \
        --features replay --bin replay >&2; then
    if [ "$needs_replay" = 1 ]; then
        echo "run.sh: the traced replay does not build; fix benchmark/src/layers.rs" >&2
        exit 1
    fi
    echo "run.sh: warning: the traced replay does not build; end-to-end run only" >&2
    replay_bin=""
fi

exec "$target/release/loadgen" --serve-bin "$target/release/evirel-serve" \
    --replay-bin "$replay_bin" --home "$here" "$@"
