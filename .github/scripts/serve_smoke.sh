#!/usr/bin/env bash
# Boot `python -m repro ...` processes, wait for their ports, run the client
# step given on stdin, then SIGTERM the processes (last booted first) and
# wait for each to drain.  The exit status is the client step's.
#
#   serve_smoke.sh "PORT[,PORT...]: SUBCOMMAND ARGS..." ... <<'CLIENT'
#   python -m repro bench-client --port PORT ...
#   CLIENT
#
# Specs boot in order, each after the previous one's ports accept
# connections (a replica needs its primary's feed, a router its backends).
# SIGTERM, not SIGINT: background jobs of a non-interactive shell start with
# SIGINT ignored, so Ctrl-C-style shutdown never fires here; SIGTERM takes
# the same drain path.
set -euo pipefail

pids=()
stop() {
  for ((i = ${#pids[@]} - 1; i >= 0; i--)); do
    kill -TERM "${pids[i]}" 2>/dev/null || true
    wait "${pids[i]}" || true
  done
}
trap stop EXIT

for spec in "$@"; do
  # shellcheck disable=SC2086  # the spec is a command line: split it
  python -m repro ${spec#*:} &
  pids+=($!)
  python - "${spec%%:*}" <<'PY'
import socket, sys, time

for port in map(int, sys.argv[1].split(",")):
    for _ in range(120):
        try:
            socket.create_connection(("127.0.0.1", port), 1).close()
            break
        except OSError:
            time.sleep(0.5)
    else:
        sys.exit(f"port {port} never came up")
PY
done

bash -euo pipefail -s
