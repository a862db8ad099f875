#!/bin/sh
# Non-test lines under crates/*/src: for every .rs file, the lines before
# its first `#[cfg(test)]`, summed per crate and in total.
# Usage: tools/loc.sh [repo root, default .]
cd "${1:-.}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0; split(FILENAME, path, "/"); crate = path[2] }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { lines[crate]++; total++ }
    END {
        for (crate in lines) printf "%-12s %6d\n", crate, lines[crate] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
    }'
