#!/bin/sh
# Diff cnvm_torture's output for three fixed seeds against the copies
# recorded in this directory. The output is counts only (attempts,
# crashes, commits, aborts per protocol and structure), exact for a
# seed, so any line that moves means crash behaviour changed.
#
#   check_torture.sh <cnvm_torture> <golden dir>            # diff
#   check_torture.sh --record <cnvm_torture> <golden dir>   # rewrite
#
# A change that alters a protocol on purpose re-records the files and
# shows their diff in its description.
set -u
record=0
if [ "${1:-}" = "--record" ]; then
    record=1
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 [--record] <cnvm_torture> <golden dir>" >&2
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
        echo "FAIL: cnvm_torture $* differs from $name" >&2
        status=1
    fi
}

check torture_seed3.txt --budget 600 --seed 3
check torture_seed3_lazy.txt --budget 600 --seed 3 --recovery lazy
check torture_media_list_seed15.txt --mode media --structure list \
    --budget 300 --seed 15
exit $status
