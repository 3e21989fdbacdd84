#!/usr/bin/env bash
# Repo-wide check gate: formatting, lints, rustdoc, source-pattern gates, the full
# test suite (which includes the daemon chaos scenario, the seeded snapshot
# fault injection and the wire-protocol fuzz) and a servebench build.
# Everything runs offline.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (offline, warnings are errors)"
# Also the panic-freedom gate: every serving-path module carries
# `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used,
# clippy::panic))]`, so an unwrap/expect/panic! outside its tests fails here.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (warnings are errors, so doc links to deleted or private items fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> set-algebra gate: no hand-rolled sorted-slice merges outside mrx-postings"
# Sorted-id intersection/union/difference must go through the seeking-
# iterator algebra in crates/postings (SliceSeeker / PostingCursor +
# *_seeking), so raw, compressed, and paged extents share one algorithm.
# A two-pointer merge loop over two slices is the telltale of a bypass.
# Allowlisted: the postings crate itself.
merges=$(grep -rn --include='*.rs' -E \
  'while [a-z_]+ < [a-z_]+\.len\(\) && [a-z_]+ < [a-z_]+\.len\(\)' crates \
  | grep -v 'crates/postings/' || true)
if [ -n "$merges" ]; then
  echo "direct sorted-slice merge outside mrx-postings (use the seeking-iterator algebra):"
  echo "$merges"
  exit 1
fi
echo "    set algebra goes through the seeking iterators"

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

echo "==> paging gate: no whole-buffer reads inside the page cache"
# The v7 premise is that paged-region bytes enter memory one page at a
# time through positioned I/O. A read_exact/read_to_end call inside the
# pagecache crate means someone slurped a stream instead of faulting
# pages (read_exact_at, the positioned form, does not match).
slurps=$(grep -rn --include='*.rs' -E '\bread_exact\(|\bread_to_end\(' \
  crates/pagecache/src || true)
if [ -n "$slurps" ]; then
  echo "whole-buffer stream read inside crates/pagecache (use positioned page faults):"
  echo "$slurps"
  exit 1
fi
echo "    page cache reads are positioned and page-sized"

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> servebench build (the end-to-end benchmark compiles against the serving API)"
# servebench is its own package outside the workspace, so nothing above
# compiles it; it uses SharedAnswerCache, SharedCacheConfig and PageCache
# directly, and an API break there would only surface when it runs.
cargo build --release --offline --manifest-path servebench/Cargo.toml

echo "==> all checks passed"
