#!/bin/sh
# Multi-tenant serving smoke: boot a jm-serve daemon, create a session
# over HTTP, drive it (step + kv traffic + timeline stream) past a
# journal compaction, SIGKILL the daemon mid-flight, restart it on the
# same state directory, SIGKILL it again once it has restored the
# session, restart again, and require the recovered session to (a)
# still answer, (b) report the exact digest it had at its last
# completed request both times, and (c) finish the remaining traffic
# with a digest byte-identical to a standalone replay of the whole
# stream (jm-load -verify). End-to-end proof that the per-request
# journal commit makes kill -9 lose nothing, and that recovery itself
# is safe to kill (docs/SERVE.md).
set -eu
cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:8093}
BASE="http://$ADDR/v1"
DIR=$(mktemp -d /tmp/jm-serve-smoke.XXXXXX)
PID=""
trap 'kill -9 $PID 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o /tmp/jm-serve-smoke ./cmd/jm-serve
go build -o /tmp/jm-load-smoke ./cmd/jm-load

# curl -s --fail-with-body is not universal; roll a tiny JSON client.
req() { # req METHOD PATH [BODY]
    method=$1; path=$2; body=${3:-}
    if [ -n "$body" ]; then
        curl -sS -X "$method" -H 'Content-Type: application/json' -d "$body" "$BASE$path"
    else
        curl -sS -X "$method" "$BASE$path"
    fi
}

digest() { req GET "/sessions/$ID/digest" | sed -n 's/.*"digest": *"\([^"]*\)".*/\1/p'; }

start() { # start LOGFILE
    /tmp/jm-serve-smoke -addr "$ADDR" -dir "$DIR/state" -max-resident 2 > "$1" 2>&1 &
    PID=$!
    wait_up
}

crash() {
    kill -9 "$PID"
    wait "$PID" 2>/dev/null || true
}

wait_up() {
    i=0
    until curl -sS -o /dev/null "$BASE/healthz" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 500 ] && { echo "serve smoke: daemon did not come up" >&2; exit 1; }
        sleep 0.02
    done
}

start "$DIR/serve1.log"

# Create a kv session with tracing on, step it, push a put batch.
ID=$(req POST /sessions '{"workload":"kv","nodes":4,"keys":16,"gateways":2,"trace":true}' \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "serve smoke: create returned no id" >&2; exit 1; }
req POST "/sessions/$ID/step" '{"cycles":200}' > /dev/null
req POST "/sessions/$ID/kv" '{"ops":[{"op":"put","key":3,"value":42},{"op":"put","key":5,"value":7}]}' > /dev/null

# The streamed timeline must be a Perfetto document.
req GET "/sessions/$ID/timeline" | grep -q traceEvents \
    || { echo "serve smoke: timeline stream is not Perfetto JSON" >&2; exit 1; }

# Enough more traffic that the journal has been compacted into a
# checkpoint at least once and holds records again, so recovery is
# checkpoint + replay.
i=0
while [ "$i" -lt 40 ]; do
    i=$((i + 1))
    req POST "/sessions/$ID/kv" "{\"ops\":[{\"op\":\"put\",\"key\":$((i % 3)),\"value\":$i},{\"op\":\"get\",\"key\":3}]}" > /dev/null
done
CKPTS=$(req GET /statz | sed -n 's/.*"checkpoints": *\([0-9]*\).*/\1/p')
[ "$CKPTS" -ge 2 ] || { echo "serve smoke: $CKPTS checkpoint(s) after 42 requests: no compaction happened" >&2; exit 1; }
[ "$(wc -c < "$DIR/state/$ID/journal")" -gt 100 ] \
    || { echo "serve smoke: journal is empty at the kill: recovery would replay nothing" >&2; exit 1; }

DIGEST_BEFORE=$(digest)
[ -n "$DIGEST_BEFORE" ] || { echo "serve smoke: no digest before kill" >&2; exit 1; }

# Hard kill: no drain, no shutdown. The per-request commit must already
# have everything on disk. Twice: the second kill lands after recovery
# has restored the session and before any new request, so restoring
# must leave the directory as good as it found it.
for n in 2 3; do
    crash
    start "$DIR/serve$n.log"
    grep -q "recovered" "$DIR/serve$n.log" \
        || { echo "serve smoke: restarted daemon recovered nothing" >&2; exit 1; }
    DIGEST_AFTER=$(digest)
    if [ "$DIGEST_AFTER" != "$DIGEST_BEFORE" ]; then
        echo "serve smoke: digest after restart $((n - 1)) $DIGEST_AFTER != before kill $DIGEST_BEFORE" >&2
        exit 1
    fi
done

# A get against the recovered session must see the pre-kill put.
VALUE=$(req POST "/sessions/$ID/kv" '{"ops":[{"op":"get","key":3}]}' \
    | sed -n 's/.*"value": *\([0-9-]*\).*/\1/p')
if [ "$VALUE" != "42" ]; then
    echo "serve smoke: recovered session returned value $VALUE for key 3, want 42" >&2
    exit 1
fi

# Fresh sessions on the restarted daemon: a small verified load run —
# every digest must match a standalone replay of the same stream.
/tmp/jm-load-smoke -addr "$ADDR" -sessions 4 -requests 24 -batch 4 \
    -nodes 4 -keys 16 -gateways 2 -conc 4 > "$DIR/load.log" 2>&1 \
    || { cat "$DIR/load.log" >&2; exit 1; }
grep -q 'verified 4/4 sessions' "$DIR/load.log" \
    || { echo "serve smoke: load run did not verify 4/4 sessions" >&2; cat "$DIR/load.log" >&2; exit 1; }

kill -TERM "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
echo "serve smoke: session survived two SIGKILLs byte-identical ($DIGEST_AFTER, checkpoint + journal replay); load run verified 4/4"
