#!/bin/sh
# Non-test lines under crates/*/src: every line of every .rs file that
# is outside a `#[cfg(test)]`-gated item, summed per crate, per directory
# under a crate's src (as `mapreduce/dist`, after its crate's line), and
# in total.
# A gated item is the attribute line, any further attribute lines, and
# the item itself: up to the `;` that ends it, or through the `}` that
# closes its first `{`. Braces are counted outside string literals (plain
# and raw, across lines), char literals and comments, so a gated item in
# the middle of a file hides itself and nothing after it.
# Usage: tools/loc.sh [-v] [repo root, default .]     -v: per-file counts
verbose=0
if [ "$1" = "-v" ]; then
    verbose=1
    shift
fi
cd "${1:-.}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk -v verbose="$verbose" '
    FNR == 1 {
        if (gated) printf "%s: gated item never closed\n", last > "/dev/stderr"
        gated = 0; last = FILENAME; depth = split(FILENAME, path, "/")
        crate = path[2]; dir = depth > 4 ? crate "/" path[4] : ""
    }
    !gated && /^[[:space:]]*#\[cfg\(test\)\]/ {
        gated = 1; opened = 0; depth = 0; state = "code"; next
    }
    gated {
        n = length($0)
        for (i = 1; i <= n; i++) {
            c = substr($0, i, 1)
            if (state == "string") {
                if (c == "\\") i++
                else if (c == "\"") state = "code"
            } else if (state == "raw") {
                if (c == "\"" && substr($0, i + 1, hashes) == pounds) { i += hashes; state = "code" }
            } else if (state == "comment") {
                if (c == "*" && substr($0, i + 1, 1) == "/") { i++; state = "code" }
            } else if (c == "/" && substr($0, i + 1, 1) == "/") {
                break
            } else if (c == "/" && substr($0, i + 1, 1) == "*") {
                i++; state = "comment"
            } else if (c == "\"") {
                state = "string"
            } else if (c == "r" && match(substr($0, i + 1), /^#*"/)) {
                hashes = RLENGTH - 1; pounds = substr($0, i + 1, hashes)
                i += RLENGTH; state = "raw"
            } else if (c == "\047" && substr($0, i + 1, 1) == "\\") {
                i += 2 + index(substr($0, i + 3), "\047")     # escaped char literal
            } else if (c == "\047" && substr($0, i + 2, 1) == "\047") {
                i += 2      # char literal (a lifetime has no closing quote)
            } else if (c == "{") {
                opened = 1; depth++
            } else if (c == "}") {
                if (--depth == 0) { gated = 0; break }
            } else if (c == ";" && !opened) {
                gated = 0; break
            }
        }
        next
    }
    { lines[crate]++; if (dir != "") lines[dir]++; files[FILENAME]++; total++ }
    END {
        if (gated) printf "%s: gated item never closed\n", last > "/dev/stderr"
        if (verbose)
            for (file in files) printf "%-48s %6d\n", file, files[file] | "sort"
        close("sort")
        for (crate in lines) printf "%-20s %6d\n", crate, lines[crate] | "LC_ALL=C sort"
        close("LC_ALL=C sort")
        printf "%-20s %6d\n", "total", total
    }'
