#!/bin/sh
# Non-test Go lines per internal/* package and in total (make loc): the
# number a PR's "net line count goes down" claim is checked against.
cd "$(dirname "$0")/.." || exit 1
for pkg in internal/*/ internal; do
	n=$(find "$pkg" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l)
	printf '%7d  %s\n' "$n" "${pkg%/}"
done
