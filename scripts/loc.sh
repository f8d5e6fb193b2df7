#!/usr/bin/env bash
# Lines of C++ in one tree at a git revision: the `wc -l` of every
# <tree>/**/*.cpp and <tree>/**/*.h, summed per module (the directory
# under <tree>, or the file itself when it sits at the top), then the
# total. Reads the committed tree, so the working copy does not matter.
#
#   scripts/loc.sh                  # src/ at HEAD
#   scripts/loc.sh <rev>            # src/ at any commit, tag or branch
#   scripts/loc.sh <rev> tests      # tests/ (or bench/) at <rev>
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:-HEAD}"
tree="${2:-src}"
if ! git rev-parse --verify --quiet "${rev}^{commit}" >/dev/null; then
  echo "loc.sh: unknown revision '${rev}'" >&2
  exit 2
fi
case "${tree}" in
  src | tests | bench) ;;
  *)
    echo "loc.sh: tree must be src, tests or bench, not '${tree}'" >&2
    exit 2
    ;;
esac
git ls-tree -r --name-only "${rev}" -- "${tree}" | grep -E '\.(cpp|h)$' |
  while read -r f; do
    module="${f#"${tree}"/}"
    printf '%s %s\n' "${module%%/*}" "$(git show "${rev}:${f}" | wc -l)"
  done |
  awk '{ lines[$1] += $2; total += $2; if (length($1) > w) w = length($1) }
       END {
         fmt = "%-" (w < 10 ? 10 : w) "s %6d\n"
         for (m in lines) printf fmt, m, lines[m] | "sort"
         close("sort")
         printf fmt, "total", total
       }'
