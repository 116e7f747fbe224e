#!/bin/sh
# Runs one experiment at full scale, with the result store off and the
# protocol checker on, and compares its stdout with the pinned golden file.
#
#   sh tests/golden/check.sh <impact binary> <experiment> <golden file>
#
# With IMPACT_GOLDEN_UPDATE=1 the file is rewritten instead of compared:
#   IMPACT_GOLDEN_UPDATE=1 ctest -R '^golden_'
# A change that moves a golden file says why in CHANGES.md.
set -eu
impact=$1
name=$2
golden=$3
actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
IMPACT_STORE=0 IMPACT_CHECK=1 "$impact" run "$name" >"$actual"
if [ "${IMPACT_GOLDEN_UPDATE:-0}" = 1 ]; then
  cp "$actual" "$golden"
  echo "rewrote $golden"
  exit 0
fi
diff -u "$golden" "$actual"
