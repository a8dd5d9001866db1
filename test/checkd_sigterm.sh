#!/bin/sh
# The daemon blocked waiting for input must still drain on SIGTERM:
# start cspm_checkd with stdin held open, read one health reply, send
# SIGTERM, and require exit 0 within 2 s with "drained" as the last line.
set -e
bin="$1"

case "$bin" in /*) ;; *) bin="$(pwd)/$bin" ;; esac
workdir=$(mktemp -d)
trap 'exec 3>&-; rm -rf "$workdir"' EXIT
cd "$workdir"

fail() {
  echo "$1" >&2
  kill -KILL "$pid" 2>/dev/null || true
  exit 1
}

# The fifo's write end stays open on fd 3 for the whole test, so the
# daemon never sees end of input.
mkfifo requests
"$bin" < requests > events &
pid=$!
exec 3> requests
printf '{"op":"health"}\n' >&3

tries=0
until grep -q '"event":"health"' events; do
  tries=$((tries + 1))
  [ "$tries" -le 200 ] || fail "no health reply within 10 s"
  sleep 0.05
done

kill -TERM "$pid"
( sleep 2; kill -KILL "$pid" ) >/dev/null 2>&1 &
watchdog=$!
set +e
wait "$pid"
code=$?
set -e
kill "$watchdog" 2>/dev/null || true
[ "$code" -eq 0 ] || fail "idle daemon exited $code after SIGTERM, want 0 within 2 s"
tail -n 1 events | grep -q '"event":"drained"' \
  || fail "last line is not the drained event: $(tail -n 1 events)"
echo ok
