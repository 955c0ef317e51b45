#!/usr/bin/env bash
# Non-test source lines per workspace crate, plus the total: for every
# `.rs` file under `crates/*/src`, the lines above its first `#[cfg(test)]`
# (the whole file when it has none). Blank and comment lines count. Size
# claims in CHANGES.md and ROADMAP.md come from this script, so anyone can
# rerun them at any commit.
#
# Below the total, the same count for the code around the crates: the
# benches, the examples, the benchmark harness and the dependency shims.
# Only the total is gated: CI's lint job fails when it exceeds the
# ceiling checked in beside this script (`loc-ceiling`), which a PR that
# deletes lines lowers to its new total.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Non-test lines of every `.rs` file under the directory `$1`.
count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { done = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
            !done { n++ }
            END { print n + 0 }
        ' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    lines=$(count "$dir/src")
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"

echo "not gated:"
printf '%-10s %6d  %s\n' benches "$(count crates/bench/benches)" crates/bench/benches
printf '%-10s %6d  %s\n' examples "$(count examples)" examples
printf '%-10s %6d  %s\n' perfbench "$(count perfbench/src)" perfbench/src
printf '%-10s %6d  %s\n' shims "$(count shims)" shims
