#!/bin/sh
# Prints the non-test Go lines (wc -l: comments and blank lines count)
# of every package in the root module, then the module total. bench/ is
# a separate module and is left out, as are _test.go files and
# testdata. Changes report "net lines removed" as the difference of two
# totals, e.g. this tree against a clean checkout of its parent:
#
#	sh scripts/loc.sh            # from the repo root
#	sh scripts/loc.sh ../parent  # another checkout
set -eu
cd "${1:-.}"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' |
    sort | xargs wc -l | awk '
        $2 == "total" { next }
        {
            dir = $2
            sub(/\/[^\/]*$/, "", dir)
            sub(/^\.\/?/, "", dir)
            if (dir == "") dir = "."
            lines[dir] += $1
            total += $1
        }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  total (root module, bench/ excluded)\n", total
        }'
