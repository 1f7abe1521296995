#!/usr/bin/env bash
# lint.sh — the repository's single lint entry point.
#
# Run it before pushing; CI's lint job executes this exact script, so a
# clean local run is a clean CI lint job. Order is cheapest-first:
# formatting, go vet, then the snapvet analyzer suite (which itself
# finishes with vet's copylocks and atomic passes over the tree).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "gofmt needed:"
  echo "$unformatted"
  exit 1
fi

echo "==> DESIGN.md section references"
# Every "DESIGN.md §n" or "DESIGN §n" in the Go and Markdown files must
# name a "## §n" heading of DESIGN.md.
sections=" $(sed -n 's/^## §\([0-9][0-9]*\) .*/\1/p' DESIGN.md | tr '\n' ' ')"
refs="$(git ls-files -z -- '*.go' '*.md' | xargs -0 grep -noE 'DESIGN(\.md)? §[0-9]+' || true)"
dangling="$(echo "$refs" | while IFS= read -r ref; do
  case "$sections" in *" ${ref##*§} "*) ;; *) echo "$ref" ;; esac
done)"
if [ -n "$dangling" ]; then
  echo "dangling DESIGN.md section references:"
  echo "$dangling"
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> snapvet"
go run ./cmd/snapvet ./...

echo "lint OK"
