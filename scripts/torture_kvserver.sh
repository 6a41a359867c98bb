#!/usr/bin/env bash
# Kill-mid-traffic torture for the network KV server.
#
# Per protocol, per round: start cnvm_kvserver on the same pool file,
# verify the PREVIOUS round's shadow journals against the recovered
# store, then drive write-heavy shadowed traffic and SIGKILL the
# server while it is in flight. A final restart verifies the last
# round's journals. The invariant under test: every mutation the
# server acked is durable (acks are sent only after the covering
# transaction commits); unacked in-flight mutations may land either
# way, and the shadow verifier allows exactly that. After the final
# restart each protocol's pool goes through `cnvm_inspect verify`,
# which fails on any integrity problem, a set bitmap bit past the heap
# frontier included.
#
#   BUILD_DIR=build scripts/torture_kvserver.sh [--recovery full|lazy]
#
# Knobs: CNVM_SMOKE=1 shrinks rounds/ops for CI; CNVM_KV_PROTOCOLS
# overrides the protocol list; CNVM_KV_ROUNDS the kill count.
# --recovery lazy restarts the server in instant-restart mode: it
# serves right after triage while the background healer drains, and
# every restart after the first additionally lands a SECOND SIGKILL
# right after READY — i.e. while recovery itself is still in flight —
# before the restart that verifies the journals.
set -u

BUILD_DIR=${BUILD_DIR:-build}
SERVER="$BUILD_DIR/tools/cnvm_kvserver"
LOAD="$BUILD_DIR/tools/cnvm_kvload"
INSPECT="$BUILD_DIR/tools/cnvm_inspect"
PROTOCOLS=${CNVM_KV_PROTOCOLS:-"clobber pmdk mnemosyne"}
ROUNDS=${CNVM_KV_ROUNDS:-3}
RECOVERY_MODE=full
while [ $# -gt 0 ]; do
    case "$1" in
        --recovery) RECOVERY_MODE=$2; shift 2 ;;
        *) echo "unknown argument: $1"; exit 2 ;;
    esac
done
case "$RECOVERY_MODE" in full|lazy) ;; *)
    echo "bad --recovery (want full|lazy)"; exit 2 ;;
esac
CONNS=3
WORKERS=2
KILL_DELAY=1.5
if [ "${CNVM_SMOKE:-0}" = "1" ]; then
    ROUNDS=2
    KILL_DELAY=0.6
fi

[ -x "$SERVER" ] || { echo "missing $SERVER (build first)"; exit 2; }
[ -x "$LOAD" ] || { echo "missing $LOAD (build first)"; exit 2; }
[ -x "$INSPECT" ] || { echo "missing $INSPECT (build first)"; exit 2; }

TMP=$(mktemp -d /tmp/cnvm_kvtorture.XXXXXX)
SRV_PID=""
LOAD_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
    [ -n "$LOAD_PID" ] && kill "$LOAD_PID" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

start_server() { # proto pool portfile logfile
    rm -f "$3"
    "$SERVER" --pool "$2" --protocol "$1" --workers $WORKERS \
              --batch 8 --port 0 --port-file "$3" \
              --recovery "$RECOVERY_MODE" >"$4" 2>&1 &
    SRV_PID=$!
    for _ in $(seq 1 200); do
        [ -s "$3" ] && return 0
        kill -0 "$SRV_PID" 2>/dev/null || break
        sleep 0.05
    done
    echo "FAIL($1): server did not come up"; cat "$4"; exit 1
}

fail=0
for proto in $PROTOCOLS; do
    pool="$TMP/kv_$proto.pool"
    prev_shadow=""
    round=1
    while [ "$round" -le "$ROUNDS" ]; do
        portf="$TMP/port.$proto.$round"
        slog="$TMP/server.$proto.$round.log"
        start_server "$proto" "$pool" "$portf" "$slog"

        if [ "$RECOVERY_MODE" = "lazy" ] && [ -n "$prev_shadow" ]; then
            # Second kill, landing while lazy recovery is still in
            # flight (the healer may be mid-drain, the heap rebuild
            # mid-scan). The restart below must re-triage and still
            # satisfy the journal verification.
            kill -9 "$SRV_PID" 2>/dev/null
            wait "$SRV_PID" 2>/dev/null
            SRV_PID=""
            portf="$TMP/port.$proto.$round.re"
            slog="$TMP/server.$proto.$round.re.log"
            start_server "$proto" "$pool" "$portf" "$slog"
        fi

        if [ -n "$prev_shadow" ]; then
            if ! "$LOAD" --port-file "$portf" --conns $CONNS \
                         --verify "$prev_shadow"; then
                echo "FAIL($proto round $round): integrity violation" \
                     "after kill -9 (see above)"
                grep RECOVERY "$slog" || true
                fail=1
            fi
        fi

        shadow="$TMP/shadow.$proto.$round"
        rm -f "$shadow".*
        "$LOAD" --port-file "$portf" --conns $CONNS --ops 100000000 \
                --window 16 --write 0.9 --keys 2000 \
                --shadow "$shadow" --expect-kill --max-seconds 60 \
                >"$TMP/load.$proto.$round.log" 2>&1 &
        LOAD_PID=$!

        sleep "$KILL_DELAY"
        kill -9 "$SRV_PID" 2>/dev/null
        wait "$LOAD_PID" 2>/dev/null
        LOAD_PID=""
        wait "$SRV_PID" 2>/dev/null
        SRV_PID=""
        grep -q "died=1" "$TMP/load.$proto.$round.log" || {
            echo "WARN($proto round $round): load finished before" \
                 "the kill; round exercised clean shutdown only"
        }

        prev_shadow="$shadow"
        round=$((round + 1))
    done

    # Final restart: recovery after the last kill, then verify.
    portf="$TMP/port.$proto.final"
    slog="$TMP/server.$proto.final.log"
    start_server "$proto" "$pool" "$portf" "$slog"
    if ! "$LOAD" --port-file "$portf" --conns $CONNS \
                 --verify "$prev_shadow"; then
        echo "FAIL($proto final): integrity violation (see above)"
        grep RECOVERY "$slog" || true
        fail=1
    fi
    kill "$SRV_PID" 2>/dev/null
    wait "$SRV_PID" 2>/dev/null
    SRV_PID=""
    if ! "$INSPECT" verify "$pool" >"$TMP/verify.$proto.log" 2>&1; then
        cat "$TMP/verify.$proto.log"
        echo "FAIL($proto final): cnvm_inspect verify found problems" \
             "in the pool"
        fail=1
        continue
    fi
    echo "OK($proto): $ROUNDS kill(s), recovery=$RECOVERY_MODE," \
         "acked data intact, pool verifies"
done

if [ "$fail" -ne 0 ]; then
    echo "kvserver torture: FAILED"
    exit 1
fi
echo "kvserver torture: all protocols passed"
