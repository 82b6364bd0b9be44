#!/usr/bin/env bash
# loc.sh — Go lines per package, non-test and test (plain `wc -l`, comments
# and blanks included): the size numbers simplicity PRs quote in CHANGES.md.
# Every .go file under a testdata/ directory (analyzer fixtures, fuzz helpers)
# counts as a test line. The last three lines split the total into the
# engine ring (the module packages `go list -deps ./internal/engine` names,
# which Session.Query links), the tooling ring (internal/analysis,
# internal/docslint and cmd/*: the static analyzers and the commands) and the
# paper library (everything else: the learned components, experiments and
# bench/).
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

module=$(go list -m)
declare -A engine_ring
while read -r pkg; do
    engine_ring[${pkg#"$module"/}]=1
done < <(go list -deps ./internal/engine | grep "^$module/")

lines() { # total lines of the files given on stdin, 0 for none
    xargs -r cat | wc -l
}

printf '%-44s %9s %9s\n' package non-test test
code_total=0
test_total=0
ring_code=0
ring_test=0
tool_code=0
tool_test=0
for d in "${dirs[@]}"; do
    d=${d%/}
    case "/$d/" in
    */testdata/*)
        code=0
        tests=$(find "$d" -maxdepth 1 -name '*.go' | lines)
        ;;
    *)
        code=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' | lines)
        tests=$(find "$d" -maxdepth 1 -name '*_test.go' | lines)
        ;;
    esac
    printf '%-44s %9d %9d\n' "$d" "$code" "$tests"
    code_total=$((code_total + code))
    test_total=$((test_total + tests))
    if [ -n "${engine_ring[$d]:-}" ]; then
        ring_code=$((ring_code + code))
        ring_test=$((ring_test + tests))
    fi
    case "$d/" in
    internal/analysis/* | internal/docslint/* | cmd/*)
        tool_code=$((tool_code + code))
        tool_test=$((tool_test + tests))
        ;;
    esac
done
printf '%-44s %9d %9d\n' total "$code_total" "$test_total"
printf '%-44s %9d %9d\n' '  engine ring' "$ring_code" "$ring_test"
printf '%-44s %9d %9d\n' '  tooling ring' "$tool_code" "$tool_test"
printf '%-44s %9d %9d\n' '  paper library' "$((code_total - ring_code - tool_code))" "$((test_total - ring_test - tool_test))"
