#!/usr/bin/env bash
# loc.sh — Go lines per package, non-test and test (plain `wc -l`, comments
# and blanks included): the size numbers simplicity PRs quote in CHANGES.md.
#
#   scripts/loc.sh                          every package of the module
#   scripts/loc.sh internal/engine bench    only these directories
# It counts the checkout it sits in: copy it into scripts/ of a checkout of
# another commit for the "before" column.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    dirs=("$@")
else
    mapfile -t dirs < <(git ls-files '*.go' | xargs -n1 dirname | sort -u)
fi

lines() { # total lines of the files given on stdin, 0 for none
    xargs -r cat | wc -l
}

printf '%-44s %9s %9s\n' package non-test test
code_total=0
test_total=0
for d in "${dirs[@]}"; do
    d=${d%/}
    code=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | lines)
    tests=$(find "$d" -maxdepth 1 -name '*_test.go' | lines)
    printf '%-44s %9d %9d\n' "$d" "$code" "$tests"
    code_total=$((code_total + code))
    test_total=$((test_total + tests))
done
printf '%-44s %9d %9d\n' total "$code_total" "$test_total"
