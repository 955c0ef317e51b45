#!/usr/bin/env bash
# Non-test source lines per workspace crate, plus the total: for every
# `.rs` file under `crates/*/src`, the lines above its first `#[cfg(test)]`
# (the whole file when it has none). Blank and comment lines count. Size
# claims in CHANGES.md and ROADMAP.md come from this script, so anyone can
# rerun them at any commit.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { done = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
            !done { n++ }
            END { print n + 0 }
        ' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
