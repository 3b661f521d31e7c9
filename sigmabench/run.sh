#!/usr/bin/env bash
# Build the shipped annotation-server binary and the benchmark from
# source, then run one benchmark workload:
#
#   bash sigmabench/run.sh --workload crawl|recrawl --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); scratch files, run records
# and span dumps go to .bench_work/. Build logs go to standard error;
# the last line of standard output is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path Cargo.toml \
  -p tu_server --bin annotation-server >&2
cargo build --release --offline --quiet --manifest-path sigmabench/Cargo.toml >&2

export SIGMABENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export SIGMABENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/sigmabench" --server-bin "$target/release/annotation-server" "$@"
