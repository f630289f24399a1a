#!/usr/bin/env bash
# Docs drift guard: every path-like reference and every bench/CMake
# target named in the top-level docs must actually exist in the tree,
# and every code identifier in backticks in the current-state docs
# (README.md, DESIGN.md, docs/) must still appear in the source tree.
# Registered as the tier-1 ctest `docs_links`; run manually from the
# repo root as tools/check_doc_links.sh. Exits nonzero listing every
# stale reference.
set -u

cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/ARCHITECTURE.md
      docs/ALGORITHMS.md docs/KERNELS.md docs/EXECUTOR.md docs/PROFILING.md)
fail=0

# GitHub-style heading slugs of a markdown file: lowercase, punctuation
# stripped (backticks first, so `code` headings slug like plain text),
# spaces to hyphens. Duplicate-heading -1/-2 suffixes are not modelled —
# a fragment matching any heading's base slug is accepted.
anchors_of() {
  grep -E '^#{1,6} ' "$1" 2>/dev/null | sed -E 's/^#+[[:space:]]+//' \
    | tr '[:upper:]' '[:lower:]' \
    | sed -E 's/`//g; s/[^a-z0-9 _-]//g; s/[[:space:]]+/-/g'
}

# Build-target names. Direct add_executable/add_test declarations, plus
# every target declared through the list+foreach idiom the bench/ and
# examples/ CMakeLists use — for those, the target name equals the .cpp
# basename.
targets=$(
  { grep -rhoE 'add_(executable|library|test)\(\s*(NAME\s+)?[A-Za-z0-9_]+' \
      --include=CMakeLists.txt . \
    | sed -E 's/.*\(\s*(NAME\s+)?//'
    find bench examples tools tests -name '*.cpp' -o -name '*.py' \
    | sed -E 's|.*/||; s|\.cpp$||; s|\.py$||'
    # pooch_cli's executable is renamed on disk; both names are real.
    echo pooch
  } | sort -u
)

# Every identifier-like word of the source tree. This script is left
# out, so naming an identifier here cannot keep a stale reference alive.
declare -A known_idents=()
while IFS= read -r word; do
  known_idents["$word"]=1
done < <(grep -rhoE --exclude=check_doc_links.sh '[A-Za-z_][A-Za-z0-9_]*' \
           src tools tests bench examples perfbench CMakeLists.txt | sort -u)

# The identifier a backticked reference names, or nothing when it is not
# code: `ns::Name` / `Type::member()` yield their last component, a bare
# CamelCase word (two or more humps) itself.
ident_of() {
  local ref="${1%()}"
  if [[ "$ref" =~ ^[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)+$ ]]; then
    ref="${ref##*::}"
    printf '%s\n' "${ref#\~}"
  elif [[ "$ref" =~ ^[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*$ ]]; then
    printf '%s\n' "$ref"
  fi
}

exists_somewhere() {
  # Bare filename: accept it if it exists anywhere in the tree.
  [ -n "$(find . -path ./build -prune -o -name "$1" -print -quit)" ]
}

for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || { echo "MISSING DOC: $doc"; fail=1; continue; }

  # Backticked references that look like repo paths. Strip trailing
  # :line and #anchor. Skip command lines (spaces), globs, placeholders
  # (<...>), URLs, flags, and generated artifacts (build trees, traces,
  # bench JSON).
  refs=$(grep -oE '`[^` ]+`' "$doc" | tr -d '`' | sort -u)

  # Code identifiers. ROADMAP.md and EXPERIMENTS.md record history, so
  # they may name code that is gone.
  case "$doc" in
    ROADMAP.md|EXPERIMENTS.md) ;;
    *)
      while IFS= read -r ref; do
        ident=$(ident_of "$ref")
        if [ -n "$ident" ] && [ -z "${known_idents[$ident]:-}" ]; then
          echo "$doc: stale identifier reference: $ref"
          fail=1
        fi
      done <<< "$refs"
      ;;
  esac
  while IFS= read -r ref; do
    [ -n "$ref" ] || continue
    case "$ref" in
      *'<'*|*'>'*|*'*'*|*'$'*|http*|-*) continue ;;
    esac
    path="${ref%%:*}"
    path="${path%%#*}"
    case "$path" in
      build*|*.trace.json|BENCH_*|*.log) continue ;;  # generated at runtime
    esac
    if [[ "$path" == */* ]]; then
      # Only treat it as a path when the leading component is a real
      # directory; otherwise it's prose like a metric-name family.
      top="${path%%/*}"
      [ -d "$top" ] || continue
      if [ ! -e "$path" ]; then
        echo "$doc: stale path reference: $ref"
        fail=1
      fi
    else
      case "$path" in
        *.md|*.cpp|*.hpp|*.sh|*.json|*.txt) ;;
        *) continue ;;  # identifiers, flags, type names
      esac
      if ! exists_somewhere "$path"; then
        echo "$doc: stale file reference: $ref"
        fail=1
      fi
    fi
  done <<< "$refs"

  # Markdown links [text](target): the target file must exist relative
  # to the doc's own directory, and a #fragment must name a real heading
  # (GitHub slug) in the linked file — or in this doc for bare #anchors.
  links=$(grep -oE '\[[^]]*\]\([^)]+\)' "$doc" \
            | sed -E 's/^\[[^]]*\]\(([^)]+)\)$/\1/' | sort -u)
  docdir=$(dirname "$doc")
  while IFS= read -r link; do
    [ -n "$link" ] || continue
    case "$link" in
      http*|mailto:*) continue ;;
    esac
    file="${link%%#*}"
    frag=""
    case "$link" in *'#'*) frag="${link#*#}" ;; esac
    if [ -z "$file" ]; then
      target="$doc"  # bare #anchor: fragment of this document
    else
      case "$file" in
        /*) target=".$file" ;;         # repo-absolute
        *)  target="$docdir/$file" ;;  # relative to the doc
      esac
      if [ ! -e "$target" ]; then
        echo "$doc: broken link target: ($link)"
        fail=1
        continue
      fi
    fi
    if [ -n "$frag" ]; then
      case "$target" in
        *.md)
          if ! anchors_of "$target" | grep -qx "$frag"; then
            echo "$doc: broken anchor: ($link) — no heading slugs to '$frag' in $target"
            fail=1
          fi ;;
      esac
    fi
  done <<< "$links"

  # bench_* / pooch_* words used as target names in prose or commands.
  words=$(grep -ohE '\b(bench_[a-z0-9_]+|pooch_cli|pooch_tests|pooch_slow_tests)\b' "$doc" | sort -u)
  while IFS= read -r word; do
    [ -n "$word" ] || continue
    case "$word" in
      *.json|*.cpp|*.hpp) continue ;;  # file references, handled above
    esac
    if ! printf '%s\n' "$targets" | grep -qx "$word"; then
      echo "$doc: references nonexistent build target: $word"
      fail=1
    fi
  done <<< "$words"
done

if [ "$fail" -ne 0 ]; then
  echo "check_doc_links: FAILED (stale references above)"
  exit 1
fi
echo "check_doc_links: OK (${#DOCS[@]} docs checked)"
