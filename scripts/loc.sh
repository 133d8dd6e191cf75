#!/usr/bin/env bash
# Print the OCaml line counts (.ml + .mli, tracked files only) of the
# source trees whose size the roadmap tracks.  `bench` includes
# `bench/suite`, which is also listed on its own; `lib` includes
# `lib/lp`, `lib/server`, `lib/resilience` and `lib/obs`, which are
# listed on their own too (the last three followed by their sum).
#
#   bash scripts/loc.sh        run from anywhere inside the repo
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
count() {
  local specs=() dir
  for dir in "$@"; do specs+=("$dir/*.ml" "$dir/*.mli"); done
  git ls-files -z -- "${specs[@]}" | xargs -0 -r cat | wc -l
}
for dir in lib bin bench bench/suite test lib/lp lib/server lib/resilience lib/obs; do
  printf '%-16s %6d\n' "$dir" "$(count "$dir")"
done
printf '%-16s %6d\n' "server+res+obs" "$(count lib/server lib/resilience lib/obs)"
