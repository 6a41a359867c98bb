#!/bin/sh
# Smoke-run the figure benches end to end, in a scratch directory:
#
#   check_figures_smoke.sh <bench dir>
#
# One case of each figure binary that the paper_claims ctest does not
# run must exit 0 and write its CSV: the `# header` line and at least
# one row. Then every figure binary run with an empty filter must
# write no CSV at all (scripts/bench.sh recovery and
# bench_smoke_recovery make such runs), and listing fig9's cases must
# write no file at all: no CSV and no TTFT report. Run it with
# CNVM_SMOKE=1.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 <bench dir>" >&2
    exit 2
fi
bin=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

# smoke <binary> <filter> <csv>
smoke() {
    dir="$work/$1"
    mkdir "$dir"
    if ! (cd "$dir" && "$bin/$1" --benchmark_filter="$2") \
            > "$dir/out.txt" 2>&1; then
        cat "$dir/out.txt" >&2
        echo "FAIL: $1 --benchmark_filter=$2 exited non-zero" >&2
        status=1
    elif [ "$(head -c 2 "$dir/$3" 2>/dev/null)" != "# " ] ||
            [ "$(grep -vc '^#' "$dir/$3")" -lt 1 ]; then
        echo "FAIL: $1 --benchmark_filter=$2 wrote no rows to $3" >&2
        status=1
    fi
}

smoke fig6_throughput 'fig6/clobber/hashmap/2/' fig6.csv
smoke fig9_recovery 'fig9/clobber/hashmap/' fig9.csv
smoke fig10_memcached 'fig10/clobber/insert-most/rwlock/2/' fig10.csv
smoke fig11_vacation 'fig11/clobber/avltree/4/' fig11.csv
smoke fig12_yada 'fig12/clobber/20/' fig12.csv
smoke fig14_compile_time 'fig14/skiplist/' fig14.csv
smoke ablation_lazy_begin 'ablation_begin/clobber/ycsb-b/eager/' \
    ablation_lazy_begin.csv
smoke extra_ycsb_mixes 'extra_ycsb/mnemosyne/bptree/ycsb-a/8/' \
    extra_ycsb_mixes.csv

empty="$work/empty"
mkdir "$empty"
for b in fig6_throughput fig7_breakdown fig8_ido fig9_recovery \
        fig10_memcached fig11_vacation fig12_yada fig13_optimization \
        fig14_compile_time ablation_lazy_begin extra_ycsb_mixes; do
    if ! (cd "$empty" && "$bin/$b" --benchmark_filter='^$') \
            > "$work/$b.empty.txt" 2>&1; then
        cat "$work/$b.empty.txt" >&2
        echo "FAIL: $b --benchmark_filter='^\$' exited non-zero" >&2
        status=1
    fi
    for f in "$empty"/*.csv; do
        if [ -e "$f" ]; then
            echo "FAIL: $b wrote $(basename "$f") with no case run" >&2
            rm -f "$f"
            status=1
        fi
    done
done
listed="$work/listed"
mkdir "$listed"
if ! (cd "$listed" && "$bin/fig9_recovery" --benchmark_list_tests) \
        > "$work/fig9.list.txt" 2>&1; then
    cat "$work/fig9.list.txt" >&2
    echo "FAIL: fig9_recovery --benchmark_list_tests exited non-zero" >&2
    status=1
fi
if [ -n "$(ls -A "$listed")" ]; then
    echo "FAIL: listing fig9_recovery's cases wrote $(ls -A "$listed")" >&2
    status=1
fi
exit $status
