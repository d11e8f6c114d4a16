#!/usr/bin/env bash
# The repository benchmark's entry point. Builds the benchmark and the
# mbrd daemon from source (inside the checkout, dune's shared cache off)
# and runs one workload, or every workload in turn with --workload all.
#
#   bash perfbench/run.sh --workload compose_mix --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 25 --trace 1
#
# Run it from the repository root. Build output goes to stderr; the last
# line on stdout is the JSON result (one per workload with "all").
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no repository here (run from the root of a checkout)" >&2
  exit 1
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/mbrd.exe 1>&2

commit=unknown
if [ -e .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

main=./_build/default/perfbench/main.exe
workload=""
rest=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:-}"; shift 2 ;;
    *) rest+=("$1"); shift ;;
  esac
done

if [ "$workload" = all ]; then
  status=0
  for w in compose_mix eco_d1 svc_mix; do
    "$main" --commit "$commit" --workload "$w" "${rest[@]}" || status=1
  done
  exit $status
fi
exec "$main" --commit "$commit" --workload "$workload" "${rest[@]}"
