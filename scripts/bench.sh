#!/usr/bin/env bash
# Rebuild and run one wall-clock bench suite, merging its report into
# BENCH_<suite>.json at the repo root under a label.
#
# usage: scripts/bench.sh <hotpath|txpath|kvserver|recovery> [label]
#
#   hotpath   micro_hotpath: NVM model write/flush/fence primitives
#   txpath    micro_txpath: per-protocol transaction paths, with the
#             log writer as one axis (baseline vs zerocached rows of
#             one run are the writer ablation)
#   kvserver  micro_kvserver: the serving stack over loopback TCP
#             (batch 1 vs batch 8 rows are the group-commit ablation)
#   recovery  fig9_recovery's restart sweep: full vs lazy time to
#             first transaction
#
# The script adds the git sha to the run; the label defaults to that
# sha, so a run never replaces another commit's label by accident.
# Knobs (env): CNVM_OPS, CNVM_REPS, CNVM_MAXTHREADS, CNVM_POOL_MB,
# CNVM_SMOKE (see bench/bench_common.h), BUILD_DIR (default build).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
SUITE="${1:-}"
SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
LABEL="${2:-$SHA}"

ARGS=()
case "$SUITE" in
  hotpath) TARGET=micro_hotpath ;;
  txpath) TARGET=micro_txpath ;;
  kvserver) TARGET=micro_kvserver ;;
  # The empty filter skips fig9's google-benchmark figure loop.
  recovery) TARGET=fig9_recovery ARGS=(--benchmark_filter='^$') ;;
  *)
    echo "usage: $0 <hotpath|txpath|kvserver|recovery> [label]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target "$TARGET" -j "$(nproc)"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
"$BUILD_DIR/bench/$TARGET" "$TMP" "${ARGS[@]}"

python3 - "$TMP" "BENCH_$SUITE.json" "$LABEL" "$SHA" <<'PY'
import json, os, sys

run_path, out, label, sha = sys.argv[1:]
doc = {}
if os.path.exists(out):
    with open(out) as f:
        doc = json.load(f)
with open(run_path) as f:
    run = json.load(f)
run["sha"] = sha
doc[label] = run
# One row per line keeps the file diffable.
with open(out, "w") as f:
    f.write("{\n")
    for i, (name, r) in enumerate(doc.items()):
        head = {k: v for k, v in r.items() if k != "rows"}
        f.write(' %s: %s,\n  "rows": [\n' % (json.dumps(name),
                                           json.dumps(head)[:-1]))
        f.write(",\n".join("   " + json.dumps(row) for row in r["rows"]))
        f.write("\n  ]}%s\n" % ("," if i + 1 < len(doc) else ""))
    f.write("}\n")
PY
echo "updated $(pwd)/BENCH_$SUITE.json (label: $LABEL)"
