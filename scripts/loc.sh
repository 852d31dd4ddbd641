#!/bin/bash
# Non-test size of the Rust sources — the count a deletion PR is judged by.
#
# Usage: scripts/loc.sh [DIR…]        (default: crates/*/src src)
#
# Per file and in total: the lines before the file's trailing
# `#[cfg(test)]`-attributed `mod tests` (the whole file if it has none),
# and how many of them are code — non-blank and not starting with `//`
# (so doc and line comments are out, a comment behind code is not).
# A file its parent declares under `#[cfg(test)]` (`#[cfg(test)] mod x;`)
# is test code as a whole, and so is everything below it: it is left out.
# Run it on two checkouts and compare the totals.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- crates/*/src src
fi

files=$(find "$@" -name '*.rs' | LC_ALL=C sort)
# The paths of test-only modules: `x.rs` and the directory `x/` next to
# a `lib.rs`/`main.rs`/`mod.rs` parent, under `parent/` for any other.
test_only=$(echo "$files" | xargs awk '
  FNR == 1 { prev = "" }
  prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
    name = $0
    sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", name)
    sub(/;.*/, "", name)
    dir = FILENAME
    sub(/[^\/]*$/, "", dir)
    base = substr(FILENAME, length(dir) + 1)
    if (base != "lib.rs" && base != "main.rs" && base != "mod.rs")
      dir = dir substr(base, 1, length(base) - 3) "/"
    print dir name ".rs"
    print dir name "/"
  }
  { prev = $0 }
')

if [ -n "$test_only" ]; then
  files=$(echo "$files" | grep -v -F "$test_only")
fi

echo "$files" | xargs awk '
  # Closes the current file: cut it at the last `#[cfg(test)]` that is
  # directly followed by a `mod tests`, then count what is before the cut.
  function close_file(    i, cut, lines, code) {
    if (file == "") return
    cut = n + 1
    for (i = 1; i < n; i++)
      if (text[i] ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && text[i + 1] ~ /^[ \t]*(pub(\([a-z]+\))? )?mod tests/)
        cut = i
    lines = cut - 1
    code = 0
    for (i = 1; i < cut; i++)
      if (text[i] !~ /^[ \t]*$/ && text[i] !~ /^[ \t]*\/\//)
        code++
    printf "%7d %7d  %s\n", lines, code, file
    total_lines += lines
    total_code += code
  }
  FNR == 1 { close_file(); file = FILENAME; n = 0 }
  { text[++n] = $0 }
  END {
    close_file()
    printf "%7d %7d  total\n", total_lines, total_code
  }
' | { printf '%7s %7s  %s\n' lines code file; cat; }
