#!/usr/bin/env bash
# Prints the two size numbers a simplicity change reports:
#   1. non-test lines per crate under crates/*/src, and their total;
#   2. `pub fn` declarations over the eight counted crates (core runtime
#      moe faults pipeline serve cli netsim).
# Both count only the lines of each file before its first line that starts
# (after indentation) with `#[cfg(test)]`, the test region crossmesh-lint
# also skips. Informational: nothing here gates.
#
#   scripts/loc.sh [repo-dir]    (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Non-test lines of every .rs file under $1, summed.
non_test_lines() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { print n + 0 }'
}

echo "non-test lines under crates/*/src:"
total=0
for src in crates/*/src; do
    n=$(non_test_lines "$src")
    total=$((total + n))
    crate=${src#crates/}
    printf '  %-12s %6d\n' "${crate%/src}" "$n"
done
printf '  %-12s %6d\n' total "$total"

counted="core runtime moe faults pipeline serve cli netsim"
pub_fns=0
for crate in $counted; do
    n=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /^[ \t]*pub fn / { n++ }
        END { print n + 0 }')
    pub_fns=$((pub_fns + n))
done
echo "pub fn in $counted: $pub_fns"
