#!/usr/bin/env bash
# Prints the two size numbers a simplicity change reports:
#   1. non-test lines per crate under crates/*/src, and their total;
#   2. `pub fn` declarations over the eight counted crates (core runtime
#      moe faults pipeline serve cli netsim);
# and, as deletion candidates, 3. the `pub fn`s under crates/*/src that
# no non-test code calls.
# All three count only the lines of each file before its first line that
# starts (after indentation) with `#[cfg(test)]`, the test region
# crossmesh-lint also skips. Informational: nothing here gates.
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

# Every word on a non-test line of the .rs files under the given
# directories, once each, leaving out `use` items, comment lines (doc
# examples included) and the name a `fn` line declares.
called_words() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0; in_use = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[ \t]*(pub(\([a-z]+\))? )?use / { in_use = 1 }
        in_use { if (/;/) in_use = 0; next }
        /^[ \t]*(\/\/|\/\*|\*)/ { next }
        {
            line = $0
            sub(/fn [A-Za-z0-9_]+/, "", line)
            n = split(line, w, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (w[i] != "") print w[i]
        }' | sort -u
}

# Approximate: a name counts as called wherever it appears as a whole
# word, so a `pub fn` that shares its name with any field, method or
# local elsewhere is never listed (`collectives::all_to_all` was missed
# for the `all_to_all` field of `bench::paper`), and one reached only
# through a trait object or a macro may be listed wrongly. The frozen
# benchmark (benchmark/src) and the examples are scanned apart, so a
# wrapper kept only for them is labelled, not hidden.
workspace=$(called_words crates/*/src src)
benchmark=$(called_words benchmark/src)
examples=$(called_words examples)
echo "pub fn under crates/*/src with no non-test caller in the workspace (approximate):"
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && match($0, /^[ \t]*pub fn [A-Za-z0-9_]+/) {
        name = substr($0, RSTART, RLENGTH)
        sub(/^[ \t]*pub fn /, "", name)
        print FILENAME, name
    }' | while read -r file name; do
    grep -qxF "$name" <<<"$workspace" && continue
    users=""
    grep -qxF "$name" <<<"$benchmark" && users+=" benchmark/src"
    grep -qxF "$name" <<<"$examples" && users+=" examples"
    printf '  %-28s %s%s\n' "${file#crates/}" "$name" "${users:+  (called from$users)}"
done
