#!/bin/sh
# Diff cnvm_torture's output for six fixed runs against the copies
# recorded in this directory. The output is counts only (attempts,
# crashes, commits, aborts or ops per protocol and structure), exact
# for a seed, so any line that moves means crash behaviour changed.
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
check torture_media_list_seed7_lazy.txt --mode media --structure list \
    --budget 600 --fault 1:1:1 --fault-recovery 1 --seed 7 \
    --recovery lazy
# The fuzz driver under media faults: a case whose recovery declares
# salvage ends early, so its line reads fewer ops.
check torture_random_seed5_fault.txt --mode random --budget 10000 \
    --fault 1:1:1 --fault-recovery 1 --seed 5
# The whole crash sweep with no budget: the two seed-3 runs above stop
# inside the insert phase, so only this one reaches the update sweep
# (which alternates value sizes and so swaps in resized nodes) and the
# remove sweep on every protocol and structure.
check torture_exhaustive_seed3.txt --mode exhaustive --budget 0 --seed 3
exit $status
