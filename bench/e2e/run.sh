#!/bin/sh
# Builds the benchmark from source and runs it, from the repository root:
#
#   sh bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   sh bench/e2e/run.sh compare A.jsonl B.jsonl
#
# Release profile, as the numbers are meant to be read. The shared dune
# cache is off so that building writes nothing outside the checkout.
exec env DUNE_CACHE=disabled dune exec --root . --profile release --display quiet \
  bench/e2e/main.exe -- "$@"
