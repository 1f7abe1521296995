#!/usr/bin/env bash
# tables.sh — the E1–E12 tables the way "byte-identical" reads them:
# snapbench's output minus the wall time in each table's header line
# (`=== E3: … — 0.4s ===`), the only bytes two runs of one tree differ in.
# CI's tables job and an issue's acceptance line run this exact script:
#
#   diff <(SNAPBENCH=/path/to/parent/snapbench hack/tables.sh -quick) <(hack/tables.sh -quick)
#
# Arguments go to snapbench. SNAPBENCH names a prebuilt binary; unset,
# the script builds cmd/snapbench of this tree.
set -euo pipefail
if [ -z "${SNAPBENCH:-}" ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  go -C "$(dirname "$0")/.." build -o "$tmp/snapbench" ./cmd/snapbench
  SNAPBENCH="$tmp/snapbench"
fi
"$SNAPBENCH" "$@" | sed 's/ — [0-9.]*s ===$/ ===/'
