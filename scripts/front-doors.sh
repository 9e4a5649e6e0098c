#!/bin/sh
# Front-door audit, printed (not gated) next to strict-size.sh: every
# `pub fn|struct|enum|trait|const` declared in non-test code under
# crates/*/src (the `check` test-support crate excepted) whose name appears
# nowhere else in the non-test code of the workspace, `examples/` or
# `bench_e2e/src`. Comment lines, `pub use` lines and everything at or
# after a file's first column-0 `#[cfg(test)]` do not count as a
# reference, so a name only its own unit tests or a re-export reach is
# listed. Matching is by bare identifier: a name shared with another item
# (`new`, `len`) is never listed, which makes this a floor, not a proof.
set -eu
cd "$(dirname "$0")/.."
decls=$(find crates/*/src -name '*.rs' | grep -v '^crates/check/' | sort)
refs=$(find src crates/*/src crates/*/examples examples bench_e2e/src -name '*.rs' | sort)
# The declaring files are read twice: once (mode=decl) to collect the
# declarations, then with every other file to count identifier uses.
awk '
    FNR == 1 { t = 0 }
    /^#\[cfg\(test\)\]/ { t = 1 }
    t || !NF || $1 ~ /^\/\// { next }
    mode == "decl" {
        if (match($0, /^ *pub (const )?(fn|struct|enum|trait|const) +[A-Za-z_][A-Za-z0-9_]*/)) {
            d = substr($0, RSTART, RLENGTH)
            n = split(d, part, / +/)
            kind[++k] = part[n - 1]; name[k] = part[n]; at[k] = FILENAME ":" FNR
            declared[FILENAME ":" FNR] = part[n]
        }
        next
    }
    $1 == "pub" && $2 == "use" { next }
    {
        own = declared[FILENAME ":" FNR]
        n = split($0, tok, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (tok[i] == own) { own = ""; continue }
            uses[tok[i]]++
        }
    }
    END {
        for (i = 1; i <= k; i++)
            if (!uses[name[i]]) printf "%s: pub %s %s\n", at[i], kind[i], name[i]
    }
' mode=decl $decls mode=refs $refs
