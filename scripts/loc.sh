#!/bin/sh
# loc.sh — Go source lines per package, production and test counted apart.
#
# Counts every Go file git knows about or would add (tracked, plus
# untracked files not ignored), one row per directory. Production lines
# exclude _test.go files, perfbench/ (the benchmark harness) and testdata/
# trees; test lines are the _test.go files under the same exclusions.
# `make loc` runs it from the repository root.
set -eu

cd "$(dirname "$0")/.."

rows=$(git ls-files --cached --others --exclude-standard '*.go' |
    grep -v -e '^perfbench/' -e '/testdata/' -e '^testdata/' |
    sort -u |
    while read -r f; do
        [ -f "$f" ] || continue # deleted in the working tree, not yet staged
        n=$(wc -l < "$f")
        case "$f" in
        *_test.go) echo "$(dirname "$f") 0 $n" ;;
        *) echo "$(dirname "$f") $n 0" ;;
        esac
    done |
    awk '{ prod[$1] += $2; test[$1] += $3 }
        END { for (d in prod) printf "%-32s %8d %8d\n", d, prod[d], test[d] }' |
    sort)

printf '%-32s %8s %8s\n' package prod test
echo "$rows"
echo "$rows" | awk '{ p += $2; t += $3 } END { printf "%-32s %8d %8d\n", "total", p, t }'
