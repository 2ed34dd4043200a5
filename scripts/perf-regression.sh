#!/usr/bin/env bash
# Perf-regression harness: run every speed-gated bench, print a
# pass/fail summary, and emit a machine-readable BENCH_results.json.
#
# Each gated bench asserts its own floor (the gate) and exits nonzero
# when a kernel or serving path regresses past it:
#
#   relation_ops             columnar join ≥ 2× row store;
#                            chunked semijoin filter ≥ 1.3× reference
#   engine_snapshot          .cqds cold start ≥ 2× text re-parse +
#                            re-stats on a ≥ 1e5-row database
#   engine_delta             small-delta publish ≥ 5× text full reload
#                            on a ≥ 1e5-row database (plus an untimed
#                            check that a warm-rebased handle answers
#                            like a re-prepare)
#
# Gated benches print one machine-parsable line per gate:
#   GATE <name> ratio=<measured> floor=<bound> cmp=<ge|le> status=PASS
# This script collects those lines (plus each bench's exit status) into
# BENCH_results.json next to the repo root:
#   {"gates": [{"bench": ..., "gate": ..., "ratio": ..., "floor": ...,
#               "cmp": ..., "pass": true|false}, ...], "all_passed": ...}
# A bench that dies before printing its GATE line (assert tripped,
# panic, build failure) still gets a JSON entry with ratio null and
# pass false — failures are never silently absent from the report.
#
# Usage: scripts/perf-regression.sh [bench ...]   (default: all gates)

set -uo pipefail
cd "$(dirname "$0")/.."

GATES=(relation_ops engine_snapshot engine_delta)
if [ "$#" -gt 0 ]; then
  GATES=("$@")
fi

LOG_DIR="${TMPDIR:-/tmp}/perf-regression"
JSON_OUT="BENCH_results.json"
mkdir -p "$LOG_DIR"

# Compile everything up front so build time never pollutes a measurement
# and a compile error reads as a build failure, not a perf regression.
echo "== building bench targets =="
if ! cargo bench --no-run 2>&1 | tail -3; then
  echo "FAIL: bench targets do not build" >&2
  echo '{"gates": [], "all_passed": false, "error": "bench targets do not build"}' >"$JSON_OUT"
  exit 1
fi

declare -a RESULTS=()
declare -a JSON_GATES=()
FAILED=0
for bench in "${GATES[@]}"; do
  log="$LOG_DIR/$bench.log"
  echo
  echo "== $bench =="
  if cargo bench -p cqd2-bench --bench "$bench" >"$log" 2>&1; then
    bench_ok=1
    RESULTS+=("PASS  $bench")
    # Surface the bench's own headline numbers (its '===' banner block).
    sed -n '/^===/,/^group:/p' "$log" | sed '$d'
  else
    bench_ok=0
    RESULTS+=("FAIL  $bench")
    FAILED=1
    echo "--- last 30 lines of $log ---"
    tail -30 "$log"
  fi
  # Collect the bench's GATE lines into JSON entries. The bench's exit
  # status wins: a PASS line from a bench that later died still counts
  # as a failure.
  found_gate=0
  while IFS= read -r line; do
    found_gate=1
    gate=$(printf '%s' "$line" | awk '{print $2}')
    ratio=$(printf '%s' "$line" | sed -n 's/.*ratio=\([0-9.]*\).*/\1/p')
    floor=$(printf '%s' "$line" | sed -n 's/.*floor=\([0-9.]*\).*/\1/p')
    cmp=$(printf '%s' "$line" | sed -n 's/.*cmp=\([a-z]*\).*/\1/p')
    if [ "$bench_ok" -eq 1 ]; then pass=true; else pass=false; fi
    JSON_GATES+=("{\"bench\": \"$bench\", \"gate\": \"$gate\", \"ratio\": ${ratio:-null}, \"floor\": ${floor:-null}, \"cmp\": \"${cmp:-ge}\", \"pass\": $pass}")
  done < <(grep '^GATE ' "$log" || true)
  if [ "$found_gate" -eq 0 ]; then
    # No GATE line at all — the bench died early (or predates the
    # format). Record the bench itself so the report stays complete.
    if [ "$bench_ok" -eq 1 ]; then pass=true; else pass=false; fi
    JSON_GATES+=("{\"bench\": \"$bench\", \"gate\": \"$bench\", \"ratio\": null, \"floor\": null, \"cmp\": \"ge\", \"pass\": $pass}")
  fi
done

if [ "$FAILED" -ne 0 ]; then all_passed=false; else all_passed=true; fi
{
  echo '{"gates": ['
  sep=""
  for g in "${JSON_GATES[@]}"; do
    printf '%s  %s' "$sep" "$g"
    sep=$',\n'
  done
  echo
  echo "], \"all_passed\": $all_passed}"
} >"$JSON_OUT"

echo
echo "== perf-regression summary =="
for line in "${RESULTS[@]}"; do
  echo "  $line"
done
echo "machine-readable report: $JSON_OUT"
if [ "$FAILED" -ne 0 ]; then
  echo "perf gates FAILED (full logs in $LOG_DIR)" >&2
  exit 1
fi
echo "all perf gates passed"
