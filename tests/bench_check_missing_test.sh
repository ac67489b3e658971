#!/bin/sh
# `ssq_bench --check` fails closed: a baseline metric that the current run
# did not measure (a dropped or renamed gated point) is a regression, not a
# silent pass. The committed baseline plus one key no run measures must
# exit 1 and name exactly that key.
#
# Usage: bench_check_missing_test.sh <ssq_bench> <BENCH_hotpath.json>
set -eu

BENCH=$1
BASELINE=$2
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_bench_missing.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

sed 's/"metrics":{/"metrics":{"cycles_per_sec_retired_point":1,/' \
  "$BASELINE" >"$TMP/baseline.json"
grep -q '"cycles_per_sec_retired_point":1,' "$TMP/baseline.json" \
  || fail "could not add the extra key to $BASELINE"

# Tiny measurement sizes and a 0.99 tolerance: only a missing metric can
# fail this run, whatever the host's speed.
set +e
"$BENCH" --cycles=2000 --scenarios=2 --jobs=1 --tolerance=0.99 \
  --check="$TMP/baseline.json" --json="$TMP/report.json" >"$TMP/out" 2>&1
code=$?
set -e
[ "$code" -eq 1 ] || fail "exit $code, expected 1: $(cat "$TMP/out")"
grep -qx 'REGRESSION cycles_per_sec_retired_point: missing from this run' \
  "$TMP/out" || fail "missing key not named: $(cat "$TMP/out")"
[ "$(grep -c '^REGRESSION' "$TMP/out")" -eq 1 ] \
  || fail "more than the missing key failed: $(cat "$TMP/out")"
[ ! -e "$TMP/report.json" ] || fail "--check overwrote the report path"
