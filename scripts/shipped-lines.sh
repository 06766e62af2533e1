#!/bin/sh
# Shipped lines per crate: in each `crates/<name>/src/**/*.rs`, the lines
# before the file's first `#[cfg(test)]`, summed per crate, then a total.
# Run from anywhere:
#
#     scripts/shipped-lines.sh
#
# The count is a report for comparing sizes across commits, not a gate.
set -eu
cd "$(dirname "$0")/.."
total=0
printf '%-16s %7s\n' crate shipped
for src in crates/*/src; do
    lines=$(find "$src" -name '*.rs' | LC_ALL=C sort | xargs awk '
        FNR == 1 { shipped = 1 }
        /#\[cfg\(test\)\]/ { shipped = 0 }
        shipped { n++ }
        END { print n + 0 }')
    printf '%-16s %7d\n' "$(basename "$(dirname "$src")")" "$lines"
    total=$((total + lines))
done
printf '%-16s %7d\n' total "$total"
