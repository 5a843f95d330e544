#!/usr/bin/env bash
# Docs integrity gate (run by CI and by the `docs_check` ctest):
#   1. every relative markdown link in README.md and docs/*.md resolves to a file
#      that exists in the repo;
#   2. every driver source under bench/ and every example under examples/
#      appears in docs/paper-map.md, so the paper map cannot silently rot as
#      drivers are added or renamed;
#   3. every `lint:<rule>` reference in the docs names a rule that coldstart_lint
#      actually implements (checked against `--list-rules` when a binary is
#      available — $COLDSTART_LINT_BIN or build*/coldstart_lint — else against
#      the rule registry in tools/lint/lint.cc);
#   4. every markdown file a code comment under src/, bench/, tests/,
#      examples/ or tools/ names exists, relative to the repo root or docs/.
# Exits nonzero with a per-violation report.
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

fail=0
report() {
  echo "docs-check: $*" >&2
  fail=1
}

# --- 1. Relative links resolve. ---
# Matches inline links/images `](target)`; ignores absolute URLs and pure
# in-page anchors; strips `#fragment` suffixes before the existence check.
docs=(README.md docs/*.md)
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || { report "expected doc file '$doc' is missing"; continue; }
  dir="$(dirname "$doc")"
  # One target per line; tolerate several links on one line.
  targets="$(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')"
  while IFS= read -r target; do
    [ -n "$target" ] || continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      report "$doc: broken relative link '$target'"
    fi
  done <<< "$targets"
done

# --- 2. Every bench driver is on the paper map. ---
map=docs/paper-map.md
if [ ! -f "$map" ]; then
  report "missing $map"
else
  for src in bench/*.cc bench/*.h; do
    [ -e "$src" ] || continue
    name="$(basename "$src")"
    if ! grep -qF "$name" "$map"; then
      report "$map: bench driver '$src' is not mentioned — add its row"
    fi
  done
  for src in examples/*.cpp; do
    [ -e "$src" ] || continue
    name="$(basename "$src")"
    if ! grep -qF "$name" "$map"; then
      report "$map: example '$src' is not mentioned — add its row"
    fi
  done
fi

# --- 3. Every lint rule named in the docs exists. ---
# Docs reference rules as `lint:<rule>` (inline code). The source of truth is
# the tool itself; the CI docs job has no build, so fall back to the registry
# literal in tools/lint/lint.cc when no binary is around.
lint_bin="${COLDSTART_LINT_BIN:-}"
if [ -z "$lint_bin" ]; then
  for cand in build/coldstart_lint build-*/coldstart_lint; do
    if [ -x "$cand" ]; then
      lint_bin="$cand"
      break
    fi
  done
fi
if [ -n "$lint_bin" ] && [ -x "$lint_bin" ]; then
  known_rules="$("$lint_bin" --list-rules | awk '{print $1}')"
else
  known_rules="$(grep -oE '^\s*\{"[a-z-]+",' tools/lint/lint.cc |
    sed -E 's/^\s*\{"//; s/",$//')"
fi
if [ -z "$known_rules" ]; then
  report "could not determine the lint rule registry (no binary, no parse)"
fi
doc_rules="$(grep -ohE '`lint:[a-z-]+`' README.md docs/*.md | sed -E 's/`lint:([a-z-]+)`/\1/' | sort -u)"
while IFS= read -r rule; do
  [ -n "$rule" ] || continue
  if ! printf '%s\n' "$known_rules" | grep -qx "$rule"; then
    report "docs reference lint rule 'lint:$rule' which coldstart_lint does not implement"
  fi
done <<< "$doc_rules"

# --- 4. Markdown files cited in code comments exist. ---
# A comment is the text after `//`, or a line opening with `#` (shell, Python,
# CMake). Paths that start with `/` (absolute, or the tail of a URL) are skipped.
cited="$(find src bench tests examples tools -type f \( -name '*.cc' -o -name '*.h' \
    -o -name '*.cpp' -o -name '*.sh' -o -name '*.py' -o -name 'CMakeLists.txt' \) |
  sort | xargs awk '
    {
      text = $0
      c = index(text, "//")
      if (c > 0) {
        text = substr(text, c + 2)
      } else if (text !~ /^[ \t]*#/) {
        next
      }
      while (match(text, /[A-Za-z0-9_.\/-]+\.md/)) {
        path = substr(text, RSTART, RLENGTH)
        if (substr(path, 1, 1) != "/") {
          print FILENAME ":" FNR " " path
        }
        text = substr(text, RSTART + RLENGTH)
      }
    }')"
while IFS=' ' read -r where path; do
  [ -n "$path" ] || continue
  if [ ! -e "$path" ] && [ ! -e "docs/$path" ]; then
    report "$where: comment names '$path', which does not exist"
  fi
done <<< "$cited"

if [ "$fail" -ne 0 ]; then
  echo "docs-check: FAILED" >&2
  exit 1
fi
echo "docs-check: OK (${#docs[@]} docs link-checked; every bench/ driver and example mapped; lint-rule refs valid; cited .md files exist)"
