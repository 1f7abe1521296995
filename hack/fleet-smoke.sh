#!/bin/sh
# fleet-smoke.sh — the deployment plane's acceptance scenario as a
# script: a 5-node snapd fleet on localhost completes a typed broadcast
# and a tree forward via snapctl, survives a kill-and-restart of one
# daemon, and exposes nonzero per-link throughput and latency-histogram
# metrics on every node. Run from the repository root; exits nonzero on
# the first failed check.
set -eu

N=5
BASE_PORT="${BASE_PORT:-9100}"
CTRL_PORT="${CTRL_PORT:-8100}"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
mkdir -p "$BIN"
export PATH="$BIN:$PATH"

fail() { echo "fleet-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "fleet-smoke: $*"; }

cleanup() {
  for d in "$WORK/typed" "$WORK/forward"; do
    [ -x "$d/down.sh" ] && "$d/down.sh" >/dev/null 2>&1 || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

note "building snapd, snapctl, fleetgen"
go build -o "$BIN/snapd" ./cmd/snapd
go build -o "$BIN/snapctl" ./cmd/snapctl
go build -o "$BIN/fleetgen" ./cmd/fleetgen

# ---------------------------------------------------------------- typed
note "generating and launching a $N-node typed fleet (corrupted start)"
fleetgen -n "$N" -protocol typed -corrupt -seed 7 \
  -base-port "$BASE_PORT" -control-port "$CTRL_PORT" \
  -out "$WORK/typed" -mode shell >/dev/null
"$WORK/typed/up.sh"

note "typed broadcast through node 0"
out="$(snapctl -addr "127.0.0.1:$CTRL_PORT" broadcast -value '{"smoke":1}')"
echo "$out" | grep -q '"event":"done"' || fail "typed broadcast did not complete: $out"
echo "$out" | grep -q '"smoke":1' || fail "feedbacks did not echo the document: $out"

note "killing node 2's daemon hard and restarting it"
kill -9 "$(cat "$WORK/typed/pids/node-2.pid")"
sleep 0.3
snapd -config "$WORK/typed/node-2.json" >"$WORK/typed/logs/node-2.restart.log" 2>&1 &
echo $! >"$WORK/typed/pids/node-2.pid"
tries=0
until snapctl -addr "127.0.0.1:$((CTRL_PORT + 2))" status >/dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -gt 100 ] && fail "restarted node 2 never answered"
  sleep 0.1
done

note "typed broadcast after the restart"
out="$(snapctl -addr "127.0.0.1:$CTRL_PORT" broadcast -value '{"smoke":2}')"
echo "$out" | grep -q '"event":"done"' || fail "post-restart broadcast did not complete: $out"

note "checking /v1/status on node 0"
# snapctl indents the JSON; strip the layout to match the wire shape.
st="$(snapctl -addr "127.0.0.1:$CTRL_PORT" status | tr -d ' \n')"
echo "$st" | grep -q '"Links":\[{"Peer":' || fail "node 0's status carries no per-link counters: $st"
echo "$st" | grep -q '"Faults":{"Drops":' || fail "node 0's status carries no fault counters: $st"

note "checking /metrics on every node"
i=0
while [ "$i" -lt "$N" ]; do
  m="$(snapctl -addr "127.0.0.1:$((CTRL_PORT + i))" metrics)"
  echo "$m" | grep -q 'snapstab_link_sent_total{peer=' \
    || fail "node $i exposes no per-link throughput"
  echo "$m" | grep 'snapstab_request_duration_seconds_count' | grep -vq ' 0$' \
    || fail "node $i has an empty latency histogram"
  echo "$m" | grep -q 'snapstab_transport_sends_total' \
    || fail "node $i exposes no transport counters"
  for series in snapstab_transport_send_datagrams_total snapstab_transport_send_batch_occupancy; do
    echo "$m" | grep "^$series " | grep -vq ' 0$' \
      || fail "node $i: $series is absent or zero after two broadcasts"
  done
  i=$((i + 1))
done
"$WORK/typed/down.sh" >/dev/null

# -------------------------------------------------------------- forward
note "generating and launching a $N-node forward fleet (line topology)"
fleetgen -n "$N" -protocol forward -corrupt -seed 7 \
  -base-port "$BASE_PORT" -control-port "$CTRL_PORT" \
  -out "$WORK/forward" -mode shell >/dev/null
"$WORK/forward/up.sh"

last=$((N - 1))
note "forwarding a document from node 0 to node $last"
out="$(snapctl -addr "127.0.0.1:$CTRL_PORT" forward -dst "$last" -value '"smoke-item"')"
echo "$out" | grep -q '"event":"done"' || fail "forward did not complete: $out"

note "polling node $last for the delivery"
tries=0
until snapctl -addr "127.0.0.1:$((CTRL_PORT + last))" deliveries | grep -q 'smoke-item'; do
  tries=$((tries + 1))
  [ "$tries" -gt 100 ] && fail "node $last never delivered the item"
  sleep 0.1
done
"$WORK/forward/down.sh" >/dev/null

note "PASS"
