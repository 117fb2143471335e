#!/usr/bin/env bash
# linkcheck.sh — fail on dead relative links in the repo's markdown docs.
#
# Scans README.md and docs/*.md for [text](target) links, ignores absolute
# URLs, and verifies every relative target (file or directory) exists
# relative to the linking file. A #fragment — on a markdown target, or
# alone for the linking file itself — must name one of the target's
# headings, slugged as GitHub renders them. CI runs this as the docs gate.
set -euo pipefail

cd "$(dirname "$0")/.."

# anchors FILE prints the GitHub anchor of every ATX heading in FILE, one
# a line: headings inside fenced code blocks are skipped, link syntax keeps
# its text, the text is lowercased, everything but letters, digits, marks,
# connector punctuation (such as "_"), "-" and spaces is dropped, spaces
# become "-", and a repeated anchor gets "-1", "-2", ... appended.
anchors() {
  perl -CSD -ne '
    if (/^ {0,3}(```|~~~)/) { $fence = !$fence; next }
    next if $fence || !/^ {0,3}#{1,6}(\s|$)/;
    chomp; s/^ {0,3}#+\s*//; s/\s+#+\s*$//; s/\s+$//;
    s/\[([^\]]*)\]\([^)]*\)/$1/g;
    $_ = lc;
    s/[^\p{L}\p{M}\p{N}\p{Pc}\- ]//g;
    s/ /-/g;
    $n = $seen{$_}++;
    print $n ? "$_-$n\n" : "$_\n";
  ' "$1"
}

fail=0
files=(README.md docs/*.md)

for file in "${files[@]}"; do
  [ -f "$file" ] || continue
  dir=$(dirname "$file")
  # Extract link targets: capture (...) groups following ](, one per line,
  # then drop an optional quoted markdown title ( [x](path "Title") ).
  while IFS= read -r target; do
    [ -n "$target" ] || continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    dest="$dir/$path"
    [ -n "$path" ] || dest="$file"
    if [ ! -e "$dest" ]; then
      echo "$file: dead link -> $target"
      fail=1
      continue
    fi
    [ "$path" != "$target" ] || continue
    frag="${target#*#}"
    case "$dest" in
      *.md) ;;
      *) continue ;;
    esac
    if ! anchors "$dest" | grep -qxF -- "$frag"; then
      echo "$file: dead anchor -> $target (no such heading in $dest)"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$file" | sed -E 's/^\]\(//; s/\)$//; s/[[:space:]]+"[^"]*"$//')
done

if [ "$fail" -ne 0 ]; then
  echo "linkcheck: dead relative links found" >&2
  exit 1
fi
echo "linkcheck: all relative links and anchors resolve"
