#!/bin/sh
# Chaoscheck: deterministic host-fault matrix for the harness
# persistence plane and the self-healing domain pool (tier-1;
# `make chaos`).
#
#   chaoscheck.sh EXPERIMENTS_EXE TRAIN_EXE [WORKDIR]
#
# Every leg asserts the three chaos-layer contracts:
#   (a) no injected fault escapes as an unstructured crash — every exit
#       code is the documented one (0 ok, 6 host fault), and stdout
#       stays byte-identical to the clean reference (recovery is
#       transparent; fault evidence lives on stderr),
#   (b) a --resume after an interrupted or corrupted run converges to
#       the clean run byte-for-byte,
#   (c) the failure reports and exit codes name the injected fault
#       class (torn / flip->corrupt / enospc / eio / kill-domain).
# The closing train leg asserts (a) and (c) for training snapshots.
set -eu

EXE="$1"
TRAIN="$2"
WORK="${3:-$(mktemp -d "${TMPDIR:-/tmp}/libra-chaoscheck.XXXXXX")}"
mkdir -p "$WORK"

# Same subset as faultcheck: robust-mini pins its own duration, fig17
# covers the learned-CCA path; together they fan out enough pool tasks
# for the kill-domain legs to bite.
IDS="robust-mini fig17"

fail() {
  echo "chaoscheck: $1" >&2
  exit 1
}

run() { # run NAME EXPECTED_EXIT args...
  name="$1" want="$2"
  shift 2
  status=0
  "$EXE" --tiny $IDS "$@" >"$WORK/$name.out" 2>"$WORK/$name.err" || status=$?
  [ "$status" -eq "$want" ] \
    || fail "$name exited $status, want $want (stderr: $(tail -2 "$WORK/$name.err" | tr '\n' ' '))"
}

same_stdout() { # same_stdout NAME REF
  if ! cmp -s "$WORK/$2.out" "$WORK/$1.out"; then
    diff "$WORK/$2.out" "$WORK/$1.out" >&2 || true
    fail "$1 stdout differs from $2 (recovery must be transparent)"
  fi
}

# ---- clean references (and the pool-size determinism baseline) ----
run clean1 0 --domains 1
run clean4 0 --domains 4
same_stdout clean4 clean1

# ---- torn: crash mid-write leaves an orphan tmp; sweep + re-save ----
CK="$WORK/ck-torn"
run torn 6 --domains 1 --checkpoint "$CK" --chaos torn:p=1
same_stdout torn clean1
grep -q "CHECKPOINT FAULT.*torn" "$WORK/torn.err" \
  || fail "torn run did not name the torn fault"
ls "$CK"/*.tmp >/dev/null 2>&1 \
  || fail "torn write left no orphaned tmp file"
run torn_resume 0 --domains 1 --checkpoint "$CK" --resume
same_stdout torn_resume clean1
grep -q "swept" "$WORK/torn_resume.err" \
  || fail "resume did not sweep the orphaned tmp file"
if ls "$CK"/*.tmp >/dev/null 2>&1; then
  fail "orphaned tmp files survived the startup sweep"
fi

# ---- flip: silent corruption; verify-on-read catches it on resume ----
CK="$WORK/ck-flip"
run flip 0 --domains 1 --checkpoint "$CK" --chaos flip:p=1
same_stdout flip clean1
run flip_resume1 6 --domains 1 --checkpoint "$CK" --resume
same_stdout flip_resume1 clean1
grep -q "CORRUPT" "$WORK/flip_resume1.err" \
  || fail "flipped cell was not reported as corrupt"
grep -q "corrupt" "$WORK/flip_resume1.err" \
  || fail "corrupt report does not name the fault kind"
ls "$CK"/*.corrupt >/dev/null 2>&1 \
  || fail "corrupt cell was not quarantined"
run flip_resume2 0 --domains 1 --checkpoint "$CK" --resume
same_stdout flip_resume2 clean1
grep -q "2 resumed" "$WORK/flip_resume2.err" \
  || fail "re-executed cells did not resume cleanly after quarantine"

# ---- enospc: disk full; saves fail structurally, results intact ----
CK="$WORK/ck-enospc"
run enospc 6 --domains 1 --checkpoint "$CK" --chaos enospc:after=0
same_stdout enospc clean1
grep -q "enospc" "$WORK/enospc.err" \
  || fail "enospc run did not name the fault"
run enospc_resume 0 --domains 1 --checkpoint "$CK" --resume
same_stdout enospc_resume clean1

# ---- eio: I/O errors on the store; saves fail structurally ----
CK="$WORK/ck-eio"
run eio 6 --domains 1 --checkpoint "$CK" --chaos eio:p=1
same_stdout eio clean1
grep -q "eio" "$WORK/eio.err" \
  || fail "eio run did not name the fault"
run eio_resume 0 --domains 1 --checkpoint "$CK" --resume
same_stdout eio_resume clean1

# ---- truncation: a cell cut short by the host is detected, named
#      with its byte position, quarantined, and re-executed ----
CK="$WORK/ck-trunc"
run trunc_seed 0 --domains 1 --checkpoint "$CK"
cell=$(ls "$CK"/*.ckpt | head -1)
head -c 40 "$cell" >"$cell.cut" && mv "$cell.cut" "$cell"
run trunc_resume 6 --domains 1 --checkpoint "$CK" --resume
same_stdout trunc_resume clean1
grep -q "CORRUPT" "$WORK/trunc_resume.err" \
  || fail "truncated cell was not reported as corrupt"
grep -q "at byte" "$WORK/trunc_resume.err" \
  || fail "corrupt report carries no byte position"
run trunc_resume2 0 --domains 1 --checkpoint "$CK" --resume
same_stdout trunc_resume2 clean1

# ---- kill-domain: tasks resurrect; reports byte-identical at any
#      pool size, and the injected schedule is size-independent ----
run kill1 0 --domains 1 --chaos kill-domain:p=0.7
same_stdout kill1 clean1
run kill4 0 --domains 4 --chaos kill-domain:p=0.7
same_stdout kill4 clean1
inj1=$(sed -n 's/^\[chaos\] \(injected: [^;]*\); .*/\1/p' "$WORK/kill1.err")
inj4=$(sed -n 's/^\[chaos\] \(injected: [^;]*\); .*/\1/p' "$WORK/kill4.err")
[ -n "$inj1" ] || fail "kill run at --domains 1 printed no chaos summary"
[ "$inj1" = "$inj4" ] \
  || fail "kill schedule differs across pool sizes ($inj1 vs $inj4)"
case "$inj1" in
*kill=0*) fail "kill-domain:p=0.7 injected no kills" ;;
esac
grep -q "resurrected=" "$WORK/kill4.err" \
  || fail "kill run reported no resurrections"

# ---- train: snapshots go through the same verify-decode-quarantine
#      load as experiment cells; a flipped payload byte and a sealed
#      payload that is not a snapshot both fail the resume (exit 6),
#      named on stderr, with the evidence quarantined ----
train_run() { # train_run NAME EXPECTED_EXIT STORE [--resume]
  name="$1" want="$2" store="$3"
  shift 3
  status=0
  "$TRAIN" --episodes 2 --steps 5 --checkpoint "$store" --snapshot-every 1 "$@" \
    >"$WORK/$name.out" 2>"$WORK/$name.err" || status=$?
  [ "$status" -eq "$want" ] \
    || fail "$name exited $status, want $want (stderr: $(tail -2 "$WORK/$name.err" | tr '\n' ' '))"
}

train_corrupt() { # train_corrupt NAME STORE EXPECTED_REASON
  train_run "$1" 6 "$2" --resume
  grep -q "CORRUPT snapshot.*$3" "$WORK/$1.err" \
    || fail "$1: corrupt snapshot not reported with \"$3\""
  ls "$2"/*.corrupt >/dev/null 2>&1 \
    || fail "$1: corrupt snapshot was not quarantined"
}

CK="$WORK/ck-train-flip"
train_run train_flip_seed 0 "$CK"
cell=$(ls "$CK"/*.ckpt)
size=$(wc -c <"$cell")
head -c $((size - 1)) "$cell" >"$cell.cut" && printf 'X' >>"$cell.cut"
mv "$cell.cut" "$cell"
train_corrupt train_flip "$CK" "at byte"

CK="$WORK/ck-train-foreign"
train_run train_foreign_seed 0 "$CK"
cell=$(ls "$CK"/*.ckpt)
payload='{"not":"a snapshot"}'
md5=$(printf '%s' "$payload" | md5sum | cut -d' ' -f1)
printf '%%LIBRA-CKPT 1 len=%d md5=%s\n%s' "${#payload}" "$md5" "$payload" >"$cell"
train_corrupt train_foreign "$CK" "not a snapshot"

echo "chaoscheck: ok (torn swept+resumed, flip detected+quarantined," \
  "enospc/eio structured, truncation positioned, kills healed" \
  "size-independently; every recovery byte-identical to clean;" \
  "flipped and foreign train snapshots quarantined)"
