#!/usr/bin/env bash
# Lines of C++ under src/ at a git revision: the `wc -l` of every
# src/**/*.cpp and src/**/*.h, summed per module (the directory under
# src/), then the total. Reads the committed tree, so the working copy
# does not matter.
#
#   scripts/loc.sh            # HEAD
#   scripts/loc.sh <rev>      # any commit, tag or branch
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:-HEAD}"
if ! git rev-parse --verify --quiet "${rev}^{commit}" >/dev/null; then
  echo "loc.sh: unknown revision '${rev}'" >&2
  exit 2
fi
git ls-tree -r --name-only "${rev}" -- src | grep -E '\.(cpp|h)$' |
  while read -r f; do
    module="${f#src/}"
    printf '%s %s\n' "${module%%/*}" "$(git show "${rev}:${f}" | wc -l)"
  done |
  awk '{ lines[$1] += $2; total += $2 }
       END {
         for (m in lines) printf "%-10s %6d\n", m, lines[m] | "sort"
         close("sort")
         printf "%-10s %6d\n", "total", total
       }'
