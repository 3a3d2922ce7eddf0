#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.  Run it from
# the root of a checkout; every argument passes through to e2e.exe:
#
#   bash bench/e2e/run.sh --workload mix-vm --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -eu
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
