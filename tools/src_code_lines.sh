#!/usr/bin/env bash
# Prints the code lines under src/, per layer (src/<layer>/) and in total:
# every line of a .h or .cc file except blank lines and lines that hold only a
# comment (// ..., or lines inside or opening a /* ... */ block).
#
# Usage: tools/src_code_lines.sh [repo-root]   (default: the current directory)
set -euo pipefail

root="${1:-.}"
total=0
for layer in "$root"/src/*/; do
  files=$(find "$layer" -type f \( -name '*.h' -o -name '*.cc' \) | sort)
  [ -z "$files" ] && continue
  # shellcheck disable=SC2086
  count=$(awk '
    in_block { if (index($0, "*/")) in_block = 0; next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    /^[[:space:]]*\/\*/ { if (!index($0, "*/")) in_block = 1; next }
    { n++ }
    END { print n + 0 }' $files)
  printf '%-10s %6d\n' "$(basename "$layer")" "$count"
  total=$((total + count))
done
printf '%-10s %6d\n' total "$total"
