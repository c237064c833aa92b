#!/usr/bin/env sh
# CI smoke test for the TCP query front-end and its durable restart: start
# `sketchctl serve --listen` on an ephemeral port with a snapshot store and
# an `epoch`-policy write-ahead log, drive it with `sketchctl loadgen`
# (concurrent readers, batched ≡ scalar verification, graceful Shutdown),
# check what the clean shutdown left in the store, then start a second
# server with `--recover` from that same store and drive it the same way.
# Every server and loadgen process must exit 0.
#
# Usage: scripts/serve_smoke.sh [readers] [requests]
#   readers:  concurrent loadgen connections (default 4)
#   requests: timed requests per reader (default 200)

set -eu
cd "$(dirname "$0")/.."
READERS="${1:-4}"
REQUESTS="${2:-200}"

cargo build --release -p bd-bench --bin sketchctl

SERVE_LOG="$(mktemp)"
STORE="$(mktemp -d)"
SERVE_PID=""
trap 'rm -rf "$SERVE_LOG" "$STORE"; kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Start a server on the store (extra `serve` flags in "$@"), wait for its
# listen address, run loadgen with `--shutdown`, require the server to exit
# 0 on its own and loadgen to have verified batched answers.
serve_and_drive() {
    target/release/sketchctl serve \
        --spec 'csss:n=2^14,eps=0.05,alpha=4,seed=42' \
        --service service:epoch=20000,threads=3,wal=epoch,retain=2 \
        --persist "$STORE" "$@" \
        --listen 127.0.0.1:0 >"$SERVE_LOG" 2>&1 &
    SERVE_PID=$!

    # The server binds port 0 and prints the resolved address; poll for it.
    ADDR=""
    i=0
    while [ "$i" -lt 100 ]; do
        ADDR="$(sed -n 's/^listening on \(.*\)$/\1/p' "$SERVE_LOG")"
        [ -n "$ADDR" ] && break
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "serve_smoke.sh: server exited before listening:" >&2
            cat "$SERVE_LOG" >&2
            exit 1
        fi
        i=$((i + 1))
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "serve_smoke.sh: server never printed its listen address" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi

    LOADGEN_OUT="$(target/release/sketchctl loadgen \
        --addr "$ADDR" --readers "$READERS" --requests "$REQUESTS" \
        --batch 16 --universe 16384 --shutdown)"
    echo "$LOADGEN_OUT"

    # Shutdown was requested: the server must exit 0 on its own.
    wait "$SERVE_PID"
    SERVE_PID=""
    cat "$SERVE_LOG"

    # The run must have produced verified batched ≡ scalar answers (a 0
    # count would mean every stamp pair raced an epoch cut — or
    # verification broke).
    VERIFIED="$(echo "$LOADGEN_OUT" | sed -n 's/^verified \([0-9]*\) .*/\1/p')"
    if [ -z "$VERIFIED" ] || [ "$VERIFIED" -eq 0 ]; then
        echo "serve_smoke.sh: no verified batched answers" >&2
        exit 1
    fi
}

serve_and_drive
FIRST_VERIFIED="$VERIFIED"

# The clean shutdown leaves the newest two snapshots (`retain=2`) and the
# live log segment in the store.
SNAPSHOTS="$(find "$STORE" -maxdepth 1 -name 'epoch-*.bdsnap' | wc -l)"
SEGMENTS="$(find "$STORE" -maxdepth 1 -name 'wal-*.bdwal' | wc -l)"
if [ "$SNAPSHOTS" -ne 2 ] || [ "$SEGMENTS" -lt 1 ]; then
    echo "serve_smoke.sh: store holds $SNAPSHOTS snapshot(s) and $SEGMENTS" \
        "log segment(s); want 2 and at least 1:" >&2
    ls -l "$STORE" >&2
    exit 1
fi

# Restart from the same store: the second server must recover a persisted
# epoch before serving.
serve_and_drive --recover
RECOVERED="$(sed -n 's/^recovered epoch \([0-9]*\) .*/\1/p' "$SERVE_LOG")"
if [ -z "$RECOVERED" ] || [ "$RECOVERED" -lt 1 ]; then
    echo "serve_smoke.sh: the restarted server recovered no epoch" >&2
    exit 1
fi
echo "serve_smoke.sh: OK ($FIRST_VERIFIED verified answers, then recovered" \
    "epoch $RECOVERED and verified $VERIFIED more)"
