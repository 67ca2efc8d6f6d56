#!/usr/bin/env bash
# Builds the `adatm` CLI and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload deli4d --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Honours CARGO_TARGET_DIR (default: target).
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" --bin adatm >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path perfbench/Cargo.toml >&2
# A fixed mmap threshold stops glibc from serving the solver's large
# buffers from a heap that reuses the same pages round after round; every
# in-process solve then gets fresh pages, as each `adatm decompose` does.
# See perfbench/README.md, "Noise".
export MALLOC_MMAP_THRESHOLD_=131072
exec "$target/release/adatm-perfbench" --adatm "$target/release/adatm" "$@"
