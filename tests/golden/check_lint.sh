#!/bin/sh
# Diff cnvm_lint's output for three fixed runs against the copies
# recorded in this directory. The output pins what the compiler
# analyses decide: the store, flush, clobber-site and call counts of
# every function, every finding with its position, and the dynamic
# phase's commit and pending-line counts for each runtime.
#
#   check_lint.sh <cnvm_lint> <golden dir>            # diff
#   check_lint.sh --record <cnvm_lint> <golden dir>   # rewrite
#
# A change that alters an analysis on purpose re-records the files and
# shows their diff in its description.
set -u
record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 [--record] <cnvm_lint> <golden dir>" >&2
    exit 2
fi
bin=$1
dir=$2
status=0

check() {
    name=$1
    shift
    if [ "$record" = 1 ]; then
        "$bin" "$@" > "$dir/$name" 2>&1
        return
    fi
    if ! "$bin" "$@" 2>&1 | diff -u "$dir/$name" -; then
        echo "FAIL: cnvm_lint $* differs from $name" >&2
        status=1
    fi
}

check lint_all_v.txt all -v
check lint_persist.json persist --json
check lint_reexec.json reexec --json
exit $status
