.PHONY: all check bench trace robustness perfcheck faultcheck invariants search observe chaos clean

all:
	dune build

# Tier-1 gate: build + full test suite (incl. the sequential-vs-parallel
# determinism tests) + bench micro smoke + trace export smoke + profiled
# robustness mini-matrix.
check:
	dune build @tier1

bench:
	dune exec bench/main.exe -- all

# Trace smoke alone: 5s wired run with --trace-out, validated by
# trace_check (manifest header, JSONL parses, per-lane timestamps
# non-decreasing).
trace:
	dune build @trace

# Full robustness matrix: CCA suite x fault-injection profiles
# (clean / bursty-loss / reorder / flap / jitter).
robustness:
	dune exec bin/experiments.exe -- robust

# Supervision smoke alone: clean / injected-crash / checkpoint-resume
# harness runs, asserting crash isolation and byte-identical resumes.
faultcheck:
	dune build @faultcheck

# Invariant smoke alone: default pack clean on robust-mini, violated
# specs fail structurally (exit 3 / exit 5), diverge certifies pool
# 1 vs 4 byte-identical and pinpoints an injected perturbation.
invariants:
	dune build @invariants

# Search smoke alone: mini adversarial search rediscovers the planted
# CUBIC counterexample, byte-identical at --domains 1 vs 4, and the
# committed scenarios/ corpus replays in the robustness matrix.
search:
	dune build @search

# Observability smoke alone: sampled trace + rollup byte-identical at
# --domains 1 vs 4, injected invariant violation produces a flight
# dump, trace_view emits valid Chrome trace-event JSON.
observe:
	dune build @observe

# Chaos smoke alone: the deterministic host-fault matrix — torn writes
# swept + resumed, flips caught by verify-on-read, enospc/eio surfaced
# structurally, truncation positioned, kill-domain healed
# byte-identically at --domains 1 and 4.
chaos:
	dune build @chaos

# CI perf gate: run the quick perf-smoke subset (spans on), append the
# result to BENCH_history.jsonl, and compare against the most recent
# comparable entry — non-zero exit if any experiment regressed > 20%.
# The first run only seeds the history (nothing to gate against).
#
# The events-per-sec lane runs under --profile release: dune's dev
# profile compiles with -opaque, which disables the cross-module
# inlining the zero-allocation contract depends on. Its gated history
# metric is the logical events-per-simulated-second (deterministic, so
# immune to 1-CPU wall-clock noise); the best-of-3 wall rate lands in
# BENCH_results.json as informational output.
perfcheck:
	dune build bench/main.exe bin/perf_report.exe
	dune exec bench/main.exe -- perf-smoke
	dune exec bench/main.exe -- invariant-overhead
	dune exec bench/main.exe -- rollup-overhead
	dune exec bench/main.exe -- flight-overhead
	dune exec bench/main.exe -- search-overhead
	dune exec bench/main.exe -- chaos-overhead
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- events-per-sec
	dune exec bin/perf_report.exe -- --gate 20

clean:
	dune clean
