#!/bin/sh
# Retired inputs fail closed: the vectorized kernel (`--kernel=simd`, the
# `simd` grid token) and the lock-step batch width (`ssq_fuzz --batch`) are
# gone, and every tool must refuse them with a non-zero exit and a single
# stderr line instead of silently running something else. A campaign
# directory whose persisted manifest names `simd` must refuse to resume.
#
# Usage: retired_inputs_test.sh <ssq_sim> <ssq_bench> <ssq_fuzz> \
#          <ssq_campaign> <workload-file>
set -eu

SIM=$1
BENCH=$2
FUZZ=$3
CAMPAIGN=$4
WORKLOAD=$5
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_retired.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_refusal NAME PATTERN CMD...: CMD exits non-zero, writes exactly one
# stderr line, and that line matches PATTERN.
expect_refusal() {
  name=$1
  pattern=$2
  shift 2
  set +e
  "$@" >"$TMP/out" 2>"$TMP/err"
  code=$?
  set -e
  [ "$code" -ne 0 ] || fail "$name: exited 0"
  [ "$(wc -l <"$TMP/err")" -eq 1 ] \
    || fail "$name: expected one stderr line, got: $(cat "$TMP/err")"
  grep -q -- "$pattern" "$TMP/err" \
    || fail "$name: stderr '$(cat "$TMP/err")' does not match '$pattern'"
}

expect_refusal "ssq_sim --kernel=simd" "expects bitsliced or scalar" \
  "$SIM" "$WORKLOAD" --kernel=simd
expect_refusal "ssq_bench --kernel=simd" "expects bitsliced or scalar" \
  "$BENCH" --kernel=simd
expect_refusal "ssq_fuzz --batch=8" "unknown option '--batch=8'" \
  "$FUZZ" --batch=8
expect_refusal "ssq_campaign --grid=simd" "scalar, noff or engine=<name>" \
  "$CAMPAIGN" --new="$TMP/fresh" --grid=simd

"$CAMPAIGN" --new="$TMP/old" --scenarios=2 --shards=1 --quiet >/dev/null
sed 's/"grid":\["default"\]/"grid":["simd"]/' "$TMP/old/manifest.json" \
  >"$TMP/manifest.json"
grep -q '"grid":\["simd"\]' "$TMP/manifest.json" \
  || fail "could not rewrite the persisted grid"
mv "$TMP/manifest.json" "$TMP/old/manifest.json"
expect_refusal "ssq_campaign --resume (simd manifest)" \
  "unknown grid token 'simd'.*scalar, noff or engine=<name>" \
  "$CAMPAIGN" --resume="$TMP/old"

echo "ok: every retired input is refused with one error line"
