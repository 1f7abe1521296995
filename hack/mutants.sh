#!/bin/sh
# mutants.sh — the committed mutant table. Each hack/mutants/*.patch
# breaks one paper clause or invariant in one source file; its header
# names the mutant, what it breaks, and the packages whose tests must
# kill it. The script applies each patch to a temporary copy of its file,
# swaps the copy in at build time with `go test -overlay` (the tree is
# never edited), runs those packages' tests (-short), and prints a
# Markdown table: mutant, what it breaks, the top-level tests that
# failed. A patch whose header says "expect: survives: <reason>" is an
# accounted survivor. One whose header says "failfast: <reason>" stops
# its packages at the first failing test: a mutant that stalls every
# timer would otherwise hold each waiting test to its deadline, and its
# row lists only the tests that failed before the stop. Exit status 1 if
# a mutant survives unaccounted, an accounted one is killed, or a patch
# no longer applies or builds.
#
# Usage: hack/mutants.sh [name-glob]   e.g. hack/mutants.sh 'window-*'
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

status=0
echo "| mutant | breaks | killed by |"
echo "|---|---|---|"
for m in hack/mutants/${1:-*}.patch; do
	name=$(sed -n 's/^mutant: //p' "$m")
	breaks=$(sed -n 's/^breaks: //p' "$m")
	pkgs=$(sed -n 's/^packages: //p' "$m")
	expect=$(sed -n 's/^expect: survives: //p' "$m")
	failfast=$(sed -n 's/^failfast: .*/-failfast/p' "$m")
	file=$(sed -n 's|^+++ b/\([^	 ]*\).*|\1|p' "$m" | head -n 1)
	if ! patch -s -o "$tmp/$name.go" "$file" <"$m" >"$tmp/$name.log" 2>&1; then
		echo "| $name | $breaks | **patch does not apply** |"
		status=1
		continue
	fi
	printf '{"Replace":{"%s":"%s"}}\n' "$root/$file" "$tmp/$name.go" >"$tmp/$name.json"
	# shellcheck disable=SC2086 # pkgs is a list
	if go test -overlay "$tmp/$name.json" -count=1 -short -timeout 300s $failfast $pkgs >"$tmp/$name.out" 2>&1; then
		if [ -n "$expect" ]; then
			verdict="survives (accounted: $expect)"
		else
			verdict="**SURVIVED**"
			status=1
		fi
	elif grep -q '\[build failed\]\|\[setup failed\]' "$tmp/$name.out"; then
		verdict="**does not build**"
		status=1
	else
		killers=$(sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' "$tmp/$name.out" | sort -u | tr '\n' ' ')
		if [ -z "$killers" ]; then
			killers=$(sed -n 's/^FAIL	\([^ ]*\).*/package \1 (panic or timeout)/p' "$tmp/$name.out" | tr '\n' ' ')
		fi
		verdict=$killers
		if [ -n "$expect" ]; then
			verdict="**killed, expected to survive**: $killers"
			status=1
		fi
	fi
	echo "| $name | $breaks | $verdict |"
done
exit $status
