#!/bin/sh
# Runs one experiment twice against one fresh result store: cold at
# --threads 1, then warm at --threads 4. Both stdouts must match the pinned
# golden file, and the warm run must read every one of its cells from disk.
#
#   sh tests/golden/store_check.sh <impact binary> <experiment> <golden file> <cells>
set -eu
impact=$1
name=$2
golden=$3
cells=$4
store=$(mktemp -d)
out=$(mktemp -d)
trap 'rm -rf "$store" "$out"' EXIT
IMPACT_STORE_DIR="$store" IMPACT_CHECK=1 \
  "$impact" run "$name" --threads 1 >"$out/cold.txt" 2>"$out/cold.err"
diff -u "$golden" "$out/cold.txt"
IMPACT_STORE_DIR="$store" IMPACT_CHECK=1 \
  "$impact" run "$name" --threads 4 >"$out/warm.txt" 2>"$out/warm.err"
diff -u "$golden" "$out/warm.txt"
want="store: $cells hits ($cells from disk), 0 misses, 0 stored"
if ! grep -qxF "$want" "$out/warm.err"; then
  echo "warm run: expected '$want' on stderr, got:"
  cat "$out/warm.err"
  exit 1
fi
