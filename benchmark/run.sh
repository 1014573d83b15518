#!/usr/bin/env bash
# The repo benchmark. Builds the harness from source, then runs it.
#
#   benchmark/run.sh                      every workload in rounds, then the
#                                         traced samples and the ladder
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload, the driver's form
#   benchmark/run.sh --smoke              tiny corpora, checks the harness
#   benchmark/run.sh agree A.json B.json  compare two result sets
#
# See benchmark/README.md for the metrics and their bounds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo takes a relative CARGO_TARGET_DIR from the directory it runs in.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The path dependencies are the repository's crates: without them (a
# directory holding only the benchmark) the build fails and so does this.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export BENCH_OUT_DIR="$here/out"
export BENCH_GIT_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"

bin="$target/release/fjbench"
if [ "${1:-}" = "agree" ]; then
  shift
  exec "$bin" agree "$@"
fi
exec "$bin" run "$@"
