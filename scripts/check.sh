#!/usr/bin/env bash
# Repo-wide check gate: formatting, lints, rustdoc, source-pattern gates, the full
# test suite (which includes the daemon chaos scenario, the seeded snapshot
# fault injection and the wire-protocol fuzz), the five examples and the
# servebench tests.
# Everything runs offline.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
# servebench is its own package outside the workspace, so it is named here.
cargo fmt --all --check
cargo fmt --manifest-path servebench/Cargo.toml --check

echo "==> cargo clippy (offline, warnings are errors)"
# Also the panic-freedom gate: every serving-path module carries
# `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used,
# clippy::panic))]`, so an unwrap/expect/panic! outside its tests fails here.
# And the paging gate: crates/pagecache/clippy.toml disallows the stream
# reads `read_exact` and `read_to_end` there, so paged-region bytes enter
# memory only through positioned page faults.
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --manifest-path servebench/Cargo.toml --all-targets --offline -- -D warnings

echo "==> rustdoc (warnings are errors, so doc links to deleted or private items fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> set-algebra gate: no hand-rolled sorted-slice merges outside mrx-postings"
# Sorted-id intersection and difference must go through the slice
# functions in crates/postings (mrx_postings::intersect, which gallops on
# lopsided inputs, and mrx_postings::difference), so every caller shares
# one tested algorithm. A two-pointer merge loop over two slices is the
# telltale of a bypass. Allowlisted: the postings crate itself.
merges=$(grep -rn --include='*.rs' -E \
  'while [a-z_]+ < [a-z_]+\.len\(\) && [a-z_]+ < [a-z_]+\.len\(\)' crates \
  | grep -v 'crates/postings/' || true)
if [ -n "$merges" ]; then
  echo "direct sorted-slice merge outside mrx-postings (use mrx_postings::{intersect, difference}):"
  echo "$merges"
  exit 1
fi
echo "    set algebra goes through mrx_postings"

echo "==> decode gate: raw varint decode stays confined to mrx-postings"
# Tagged posting blocks are the one wire form for extents; every reader
# must go through the tagged-block decoders in crates/postings so a new
# call site cannot bypass tag validation (or silently fork the format).
# read_varint is pub(crate) there — any mention outside the crate is a
# decode path escaping the arena.
varints=$(grep -rn --include='*.rs' -E '\bread_varint\b|\bdecode_varint\b' \
  crates | grep -v 'crates/postings/' || true)
if [ -n "$varints" ]; then
  echo "raw varint decode outside crates/postings (use the tagged-block decoders):"
  echo "$varints"
  exit 1
fi
echo "    varint decode is confined to the posting arena"

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> examples: run all five (cargo test above built them in debug)"
# Each example asserts its answers against eval_data ground truth, so a
# clean exit is the check; persistent_index writes only under the temp dir.
for ex in quickstart auction_site nasa_archive workload_tuning persistent_index; do
  cargo run --offline -q --example "$ex" > /dev/null
done

echo "==> ablations and figures at tiny scale"
# Outside unit tests these two targets are the only callers of the Naive,
# BottomUp, Hybrid and Subpath strategies and of the per-FUP
# refine_for/promote_for reference loops; clippy above only compiles them.
MRX_SCALE=tiny cargo bench --offline -p mrx-bench --bench ablations
figs_out=$(mktemp -d)
MRX_SCALE=tiny cargo run --release --offline -p mrx-bench --bin figures -- --all --out "$figs_out"
rm -rf "$figs_out"

echo "==> servebench build and tests (the end-to-end benchmark against the serving API)"
# servebench is its own package outside the workspace, so nothing above
# compiles or tests it; it uses SharedAnswerCache, SharedCacheConfig and
# PageCache directly, and an API break there would only surface when it
# runs. Its `counts` test runs all three workloads against a real daemon,
# and each run's oracle gate compares the daemon's answers and `Cost` with
# the traced in-process evaluator (`view::top_down_targets_budgeted`, then
# `view::finish_answer_view_budgeted`): the only check of that pair against
# the daemon.
cargo build --release --offline --manifest-path servebench/Cargo.toml
cargo test --release --offline --manifest-path servebench/Cargo.toml

echo "==> all checks passed"
