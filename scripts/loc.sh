#!/usr/bin/env bash
# Non-test Go lines per package and in total: the physical lines (wc -l) of
# every tracked .go file whose name does not end in _test.go, summed by
# directory ("." is the module root). These are the sizes CHANGES.md and
# ROADMAP.md quote.
#
#   scripts/loc.sh [ref]
#
# With a ref (commit, branch or tag) it counts the files of that commit
# instead of the working tree's.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:-}
if [ -n "$ref" ]; then
	files=$(git ls-tree -r --name-only "$ref" | grep '\.go$' | grep -v '_test\.go$')
	count() { git show "$ref:$1" | wc -l; }
else
	files=$(git ls-files | grep '\.go$' | grep -v '_test\.go$')
	count() { wc -l <"$1"; }
fi
counts=$(for f in $files; do echo "$(dirname "$f") $(count "$f")"; done)
awk '{n[$1] += $2} END {for (p in n) printf "%7d  %s\n", n[p], p}' <<<"$counts" | sort -k2
awk '{t += $2} END {printf "%7d  total\n", t}' <<<"$counts"
