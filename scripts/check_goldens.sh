#!/usr/bin/env bash
# Pin the output of `dart-cli check` and `dart-cli extract` on fixed-seed
# documents: 48 years, 5% OCR noise, one per scenario.  The check report
# lists every violated ground constraint with its evaluated left-hand side,
# in a fixed order, so a change to detection, to constraint evaluation or
# to the report order shows up as a diff against test/goldens/check/.  The
# extracted relation (CSV) pins acquisition byte for byte: HTML parsing,
# table expansion, row matching and dictionary repair; a change there
# shows up as a diff against test/goldens/extract/.
#
#   bash scripts/check_goldens.sh [CLI]           compare (exit 1 on a diff)
#   UPDATE=1 bash scripts/check_goldens.sh [CLI]  rewrite the goldens
#
# CLI defaults to _build/default/bin/dart_cli.exe; run from the repo root.
set -euo pipefail
CLI=${1:-_build/default/bin/dart_cli.exe}
GOLDENS=test/goldens
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
status=0
for s in cash-budget balance-sheet catalog quarterly; do
  "$CLI" gen -s "$s" --years 48 --noise 0.05 --seed 14 -o "$TMP/$s.html" > /dev/null
  # check exits 1 when it finds violations; the report is what we pin.
  "$CLI" check -s "$s" "$TMP/$s.html" > "$TMP/$s.txt" 2> /dev/null || true
  "$CLI" extract -s "$s" "$TMP/$s.html" > "$TMP/$s.csv" 2> /dev/null
  for out in check/$s.txt extract/$s.csv; do
    if [ "${UPDATE:-0}" = 1 ]; then
      cp "$TMP/${out#*/}" "$GOLDENS/$out"
    elif ! diff -u "$GOLDENS/$out" "$TMP/${out#*/}"; then
      echo "${out%%/*} output for $s differs from $GOLDENS/$out" >&2
      status=1
    fi
  done
done
[ "$status" = 0 ] && [ "${UPDATE:-0}" != 1 ] && echo "check and extract goldens OK (4 scenarios)"
exit $status
