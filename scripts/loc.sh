#!/usr/bin/env bash
# Print the OCaml line counts (.ml + .mli, tracked files only) of the
# source trees whose size the roadmap tracks.  `bench` includes
# `bench/suite`, which is also listed on its own.
#
#   bash scripts/loc.sh        run from anywhere inside the repo
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
for dir in lib bin bench bench/suite test; do
  lines=$(git ls-files -z -- "$dir/*.ml" "$dir/*.mli" \
            | xargs -0 -r cat | wc -l)
  printf '%-12s %6d\n' "$dir" "$lines"
done
