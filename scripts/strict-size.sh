#!/bin/sh
# Strict non-test code size, the one number simplicity PRs report:
# lines under crates/*/src (or the file/directory given as $1) that are
# not blank, not a `//` comment line, and not at or after the file's
# first column-0 `#[cfg(test)]`. Comments, blank lines and test modules
# earn nothing; neither does moving code into test, generated or data
# files, which this never counts.
set -eu
cd "$(dirname "$0")/.."
find ${1:-crates/*/src} -name '*.rs' | xargs awk '
    FNR == 1 { t = 0 }
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && NF && $1 !~ /^\/\// { c++ }
    END { print c }'
