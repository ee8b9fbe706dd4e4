#!/usr/bin/env bash
# The one benchmark command. Builds the root workspace's skewbound-serve
# and the harness (both offline, release), then runs the harness.
#
#   benchmark/run.sh                      all four workloads, untraced then traced
#   benchmark/run.sh --quick              the same with 5 s passes (smoke mode)
#   benchmark/run.sh --repeat-check       the full set twice, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one pass; the last line of stdout is the result as JSON
#
# Run it from the repository root (the driver does) or from anywhere:
# paths are taken from this script's location.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Worker counts come from the host, never from a stale environment.
unset SKEWBOUND_THREADS SKEWBOUND_PAR

# One target directory for both builds. A relative CARGO_TARGET_DIR is
# meant relative to where the command was started, not to each
# workspace cargo is pointed at.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p skewbound-net --bin skewbound-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

git_rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
rustc_v="$(rustc -V 2>/dev/null || echo unknown)"

exec "$target/release/skewbound-benchmark" \
    --serve-bin "$target/release/skewbound-serve" \
    --out-dir "$here/out" \
    --git-rev "$git_rev" --rustc "$rustc_v" \
    "$@"
