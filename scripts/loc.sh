#!/bin/sh
# Prints the size a design change reports: non-blank, non-comment lines
# of Rust under the given paths (default: crates/ and shims/), counting
# each file only up to its first `#[cfg(test)]` or `#![cfg(test)]` line
# (so test modules are left out, whether written in the file or kept out
# of line in a file that opens with `#![cfg(test)]`). With `--unsafe` it
# counts, over the same lines, the `unsafe` blocks and `unsafe impl`s
# instead.
#
# Usage: scripts/loc.sh [--unsafe] [checkout [path ...]]
#   checkout  the tree to count in (default: the current directory)
#   path      files or directories inside it (default: crates shims)
#
# Run it on two checkouts to compare commits, e.g. one made with
# `git archive <rev> | tar -x -C <dir>`; name paths to size one part of
# the tree, e.g. `scripts/loc.sh . crates/stm/src/boosted`.
set -eu
unsafe=false
if [ "${1:-}" = --unsafe ]; then unsafe=true; shift; fi
cd "${1:-.}"
if [ $# -gt 1 ]; then shift; else set -- crates shims; fi
find "$@" -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort |
    xargs awk 'FNR == 1 { in_tests = 0 } /^[[:space:]]*#!?\[cfg\(test\)\]/ { in_tests = 1 } !in_tests' |
    if $unsafe; then
        grep -vE '^[[:space:]]*//' | grep -cE '\bunsafe (\{|impl\b)' || true
    else
        grep -cvE '^[[:space:]]*(//|$)'
    fi
