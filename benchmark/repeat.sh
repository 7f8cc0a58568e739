#!/usr/bin/env bash
# The benchmark's self-check: two interleaved sets of N runs per workload,
# judged by the driver's acceptance rule (see README.md, "Steadiness").
#
#   benchmark/repeat.sh [N] [extra args, e.g. --workload signal_storm --seed 11]
#
# Run from the repository root; N defaults to 10 (about 35 minutes).
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-10}"
shift || true
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat "$n" "$@"
