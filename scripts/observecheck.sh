#!/bin/sh
# Observecheck: scale-ready observability smoke (tier-1; `make observe`).
#
#   observecheck.sh EXPERIMENTS_EXE TRACE_CHECK_EXE TRACE_VIEW_EXE [WORKDIR]
#
# Five probes:
#   1. pool-size determinism. population-mini with head-based sampling
#      (--trace-sample 1/4) and windowed rollups must export
#      byte-identically at --domains 1 vs --domains 4. robust-mini and
#      fig2b, whose experiments fan out again inside their lane, must
#      export byte-identical traces, rollup CSVs and metrics CSVs at
#      --domains 1, 2 and 4, and under a violated invariant (probe 3)
#      print the same stdout, the same [invariants] summary on stderr
#      and the same flight-violation dump. Trace JSONL is compared with
#      its manifest header stripped: the header records argv, which
#      legitimately differs between runs.
#   2. the sampled trace must validate under trace_check, and the
#      rollup must be smaller than the sampled trace it summarizes
#   3. a deliberately violated invariant must leave a flight-recorder
#      dump in --flight-dir and name it in the failure report, at
#      --domains 1, 2 and 4 alike
#   4. the flight dump itself must be a valid trace (trace_check on a
#      manifest-less JSONL)
#   5. trace_view must convert both the trace export and the flight
#      dump to Chrome trace-event JSON that passes its own re-parse
#      ("(valid JSON)")
set -eu

EXPERIMENTS="$1"
TRACE_CHECK="$2"
TRACE_VIEW="$3"
WORK="${4:-$(mktemp -d "${TMPDIR:-/tmp}/libra-observecheck.XXXXXX")}"
mkdir -p "$WORK" "$WORK/flight"

BAD='bad: always ev=ack & rtt<0'

fail() {
  echo "observecheck: $1" >&2
  exit 1
}

# 1. Sampling + rollups byte-identical at --domains 1 vs --domains 4.
for d in 1 4; do
  "$EXPERIMENTS" --tiny population-mini --domains "$d" \
    --trace-sample 1/4 --trace "$WORK/trace$d.jsonl" \
    --rollup-out "$WORK/rollup$d.csv" \
    >"$WORK/pop$d.out" 2>"$WORK/pop$d.err" \
    || fail "sampled population-mini at --domains $d failed (exit $?)"
done
cmp -s "$WORK/rollup1.csv" "$WORK/rollup4.csv" \
  || fail "rollup CSV differs between --domains 1 and 4"
grep -v '"manifest"' "$WORK/trace1.jsonl" >"$WORK/trace1.stripped"
grep -v '"manifest"' "$WORK/trace4.jsonl" >"$WORK/trace4.stripped"
cmp -s "$WORK/trace1.stripped" "$WORK/trace4.stripped" \
  || fail "sampled trace differs between --domains 1 and 4"

# 1b. Nested fan-outs export the same bytes at --domains 1, 2 and 4.
for id in robust-mini fig2b; do
  for d in 1 2 4; do
    "$EXPERIMENTS" --tiny "$id" --domains "$d" --trace "$WORK/$id-$d.jsonl" \
      --rollup-out "$WORK/$id-$d.rollup.csv" --metrics "$WORK/$id-$d.metrics.csv" \
      >"$WORK/$id-$d.out" 2>"$WORK/$id-$d.err" \
      || fail "$id at --domains $d failed (exit $?)"
    grep -v '"manifest"' "$WORK/$id-$d.jsonl" >"$WORK/$id-$d.stripped"
  done
  for d in 2 4; do
    for f in stripped rollup.csv metrics.csv; do
      cmp -s "$WORK/$id-1.$f" "$WORK/$id-$d.$f" \
        || fail "$id: $f export differs between --domains 1 and $d"
    done
  done
done

# 2. The sampled trace validates; the rollup is the smaller artifact.
"$TRACE_CHECK" --require-manifest "$WORK/trace1.jsonl" >"$WORK/tc.out" \
  || fail "trace_check rejected the sampled trace (exit $?)"
rollup_size=$(wc -c <"$WORK/rollup1.csv")
trace_size=$(wc -c <"$WORK/trace1.jsonl")
[ "$rollup_size" -gt 0 ] || fail "rollup CSV is empty"
[ "$rollup_size" -lt "$trace_size" ] \
  || fail "rollup ($rollup_size B) not smaller than the trace ($trace_size B)"

# 3. A violated invariant leaves a flight dump and reports its path;
#    verdicts, report and dump are the same at --domains 1, 2 and 4.
for d in 1 2 4; do
  status=0
  "$EXPERIMENTS" --tiny robust-mini --domains "$d" --invariant "$BAD" \
    --flight-dir "$WORK/flight" \
    >"$WORK/bad$d.out" 2>"$WORK/bad$d.err" || status=$?
  [ "$status" -eq 3 ] || fail "violated run at --domains $d exited $status, want 3"
  [ -s "$WORK/flight/flight-violation-bad.jsonl" ] \
    || fail "no flight dump at $WORK/flight/flight-violation-bad.jsonl"
  mv "$WORK/flight/flight-violation-bad.jsonl" "$WORK/bad$d.flight.jsonl"
  grep '^\[invariants\]' "$WORK/bad$d.err" >"$WORK/bad$d.summary" || true
done
grep -q "flight:" "$WORK/bad1.out" \
  || fail "failure report does not name the flight dump"
[ -s "$WORK/bad1.summary" ] || fail "no [invariants] summary on stderr"
for d in 2 4; do
  for f in out summary flight.jsonl; do
    cmp -s "$WORK/bad1.$f" "$WORK/bad$d.$f" \
      || fail "violated run: $f differs between --domains 1 and $d"
  done
done
DUMP="$WORK/bad1.flight.jsonl"

# 4. The flight dump is itself a valid (manifest-less) trace.
"$TRACE_CHECK" "$DUMP" >"$WORK/tc-flight.out" \
  || fail "trace_check rejected the flight dump (exit $?)"

# 5. trace_view converts both artifacts to valid Chrome trace JSON.
"$TRACE_VIEW" "$WORK/trace1.jsonl" -o "$WORK/trace1.trace.json" \
  >"$WORK/tv.out" || fail "trace_view failed on the trace export (exit $?)"
grep -q "(valid JSON)" "$WORK/tv.out" \
  || fail "trace_view did not self-validate the trace export conversion"
"$TRACE_VIEW" "$DUMP" -o "$WORK/flight.trace.json" >"$WORK/tv-flight.out" \
  || fail "trace_view failed on the flight dump (exit $?)"
grep -q "(valid JSON)" "$WORK/tv-flight.out" \
  || fail "trace_view did not self-validate the flight dump conversion"

echo "observecheck: ok (exports and invariant verdicts byte-identical at --domains 1/2/4, violation leaves a flight dump, timeline exports valid)"
