#!/usr/bin/env bash
# Randomized fault soak: arm EVERY clado::fault site at a small independent
# probability (prob mode is counter-hashed, so a seed fully determines the
# fire pattern) and drive the fault-absorbing test suites. For each seed:
#
#   1. a soak run with all five sites armed at prob:0.01 — it may pass
#      (faults absorbed by retries/fallbacks) or fail (a fault landed
#      somewhere fatal, e.g. a NaN poisoning a sweep row), but it must
#      never hang or crash the harness itself;
#   2. a clean rerun in the same CLADO_CHECKPOINT_DIR, which MUST pass —
#      whatever state the faulted run left behind (partial checkpoints,
#      truncated artifacts) has to be recovered from or rejected, never
#      trusted into a wrong answer.
#
# A second mode attacks the LIVE serving daemon instead of test binaries:
#
#   tools/fault_soak.sh --live <build-dir> [seed...]
#
# arms the daemon-side sites (accept, frame_decode, registry_swap) at
# prob:0.01, starts `clado serve` on a UDS + ephemeral TCP listener, and
# streams mixed-deadline-class loadgen traffic over BOTH transports while
# issuing mid-stream hot-swaps. The bar: the daemon never hangs (every
# step runs under timeout), every loadgen request resolves with a definite
# status (loadgen exits nonzero on unaccounted requests), swaps either
# commit or fail with a definite error, and a clean shutdown drains and
# exits 0 at the end.
#
# Usage: tools/fault_soak.sh [--live] <build-dir> [seed...]   (default seeds 101 202 303)
set -euo pipefail

live=0
if [ "${1:-}" = "--live" ]; then
  live=1
  shift
fi
build_dir=${1:?usage: tools/fault_soak.sh [--live] <build-dir> [seed...]}
shift
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
  seeds=(101 202 303)
fi

prob=${CLADO_SOAK_PROB:-0.01}
failures=0

soak_env() {
  # $1 = seed; prints the env assignments for an all-sites-armed run.
  echo "CLADO_FAULT_SEED=$1 \
CLADO_FAULT_IO_WRITE=prob:$prob \
CLADO_FAULT_IO_READ=prob:$prob \
CLADO_FAULT_NAN_LOSS=prob:$prob \
CLADO_FAULT_POOL_TASK=prob:$prob \
CLADO_FAULT_SOLVER_ORACLE=prob:$prob"
}

run_pair() {
  # $1 = seed, $2 = test binary, $3 = timeout seconds.
  local seed=$1 binary=$2 tmo=$3
  local name
  name=$(basename "$binary")
  local ckpt
  ckpt=$(mktemp -d "${TMPDIR:-/tmp}/clado_soak_XXXXXX")

  echo "--- seed $seed: $name (all sites prob:$prob) ---"
  if env $(soak_env "$seed") CLADO_CHECKPOINT_DIR="$ckpt" \
      timeout "$tmo" "$binary" > "$ckpt/soak.log" 2>&1; then
    echo "    soak run: passed (faults absorbed)"
  else
    local rc=$?
    if [ "$rc" -ge 124 ]; then
      echo "    soak run: TIMEOUT/KILLED (rc=$rc) — hang under injected faults"
      tail -40 "$ckpt/soak.log"
      failures=$((failures + 1))
      rm -rf "$ckpt"
      return
    fi
    echo "    soak run: failed cleanly (rc=$rc) — acceptable, checking recovery"
  fi

  if env CLADO_CHECKPOINT_DIR="$ckpt" timeout "$tmo" "$binary" \
      > "$ckpt/recovery.log" 2>&1; then
    echo "    recovery run: passed"
  else
    echo "    recovery run: FAILED — state left by the faulted run was not recovered"
    tail -40 "$ckpt/recovery.log"
    failures=$((failures + 1))
  fi
  rm -rf "$ckpt"
}

live_drill() {
  # $1 = seed. Chaos on the live daemon: serve-path sites armed, loadgen
  # streaming over UDS and TCP, hot-swaps mid-stream, clean drain at the
  # end. Daemon-side faults only — loadgen itself runs fault-free so its
  # accounting invariant (exit 1 on unaccounted requests) stays sharp.
  local seed=$1
  local model=${CLADO_SOAK_MODEL:-mobilenet_v3_mini}
  local work
  work=$(mktemp -d "${TMPDIR:-/tmp}/clado_live_XXXXXX")
  local sock="$work/serve.sock"

  echo "--- seed $seed: live daemon chaos ($model, serve sites prob:$prob) ---"
  env CLADO_FAULT_SEED="$seed" \
      CLADO_FAULT_ACCEPT=prob:$prob \
      CLADO_FAULT_FRAME_DECODE=prob:$prob \
      CLADO_FAULT_REGISTRY_SWAP=prob:$prob \
      CLADO_ARTIFACTS_DIR="${CLADO_ARTIFACTS_DIR:-$work/artifacts}" \
      "$build_dir/tools/clado" serve "$model" --fp32 --workers=2 \
      --socket="$sock" --tcp-port=0 > "$work/daemon.log" 2>&1 &
  local daemon_pid=$!

  # Readiness: the daemon prints its listener line after engine load.
  local tcp_port=""
  for _ in $(seq 1 600); do
    if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
    tcp_port=$(grep -o 'tcp:127.0.0.1:[0-9]*' "$work/daemon.log" | head -1 | cut -d: -f3 || true)
    if [ -n "$tcp_port" ]; then break; fi
    sleep 1
  done
  if [ -z "$tcp_port" ]; then
    echo "    daemon never came up"
    cat "$work/daemon.log"
    failures=$((failures + 1))
    kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
    return
  fi
  echo "    daemon up (pid $daemon_pid, uds $sock, tcp $tcp_port)"

  # Streams over both transports with mid-stream hot-swaps. Swaps may be
  # rejected by an injected registry_swap fault — that is a definite
  # answer, and the previous engines must keep serving through it.
  ( env "$build_dir/tools/loadgen" --endpoint="$sock" \
        --requests=400 --clients=4 --seed="$seed" > "$work/lg_uds.log" 2>&1 ) &
  local lg_uds=$!
  ( env "$build_dir/tools/loadgen" --endpoint="tcp:$tcp_port" \
        --requests=400 --clients=4 --seed=$((seed + 1)) > "$work/lg_tcp.log" 2>&1 ) &
  local lg_tcp=$!
  for swap in 1 2 3; do
    timeout 60 "$build_dir/tools/clado" query --socket="$sock" --swap-fp32 \
      >> "$work/swaps.log" 2>&1 || true
    sleep 1
  done

  local drill_failed=0
  if ! timeout 600 tail --pid="$lg_uds" -f /dev/null; then drill_failed=1; fi
  if ! timeout 600 tail --pid="$lg_tcp" -f /dev/null; then drill_failed=1; fi
  if [ "$drill_failed" -ne 0 ]; then
    echo "    loadgen HUNG under daemon chaos"
  fi
  if ! wait "$lg_uds"; then
    echo "    loadgen (uds): unaccounted requests"
    drill_failed=1
  fi
  if ! wait "$lg_tcp"; then
    echo "    loadgen (tcp): unaccounted requests"
    drill_failed=1
  fi
  cat "$work/lg_uds.log" "$work/lg_tcp.log" | sed 's/^/      /'

  # Clean drain: shutdown may need retries (accept faults can drop the
  # control connection itself), but must land within the budget, and the
  # daemon process must then exit 0.
  local shut_ok=0
  for _ in $(seq 1 20); do
    if timeout 30 "$build_dir/tools/clado" query --socket="$sock" --count=0 \
        >> "$work/shutdown.log" 2>&1; then
      shut_ok=1
      break
    fi
    sleep 1
  done
  if [ "$shut_ok" -ne 1 ]; then
    echo "    shutdown was never acknowledged"
    drill_failed=1
    kill "$daemon_pid" 2>/dev/null || true
  fi
  if ! timeout 120 tail --pid="$daemon_pid" -f /dev/null; then
    echo "    daemon HUNG after shutdown ack"
    drill_failed=1
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  if wait "$daemon_pid"; then
    grep '^served ' "$work/daemon.log" | sed 's/^/      /'
  else
    echo "    daemon exited nonzero"
    tail -20 "$work/daemon.log"
    drill_failed=1
  fi

  if [ "$drill_failed" -ne 0 ]; then
    failures=$((failures + 1))
  else
    echo "    live drill: passed (no hangs, all requests accounted, clean drain)"
  fi
  rm -rf "$work"
}

if [ "$live" -eq 1 ]; then
  for seed in "${seeds[@]}"; do
    live_drill "$seed"
  done
else
  for seed in "${seeds[@]}"; do
    run_pair "$seed" "$build_dir/tests/sensitivity_test" 600
    run_pair "$seed" "$build_dir/tests/checkpoint_test" 600
    run_pair "$seed" "$build_dir/tests/iqp_test" 600
    # Serving: the compiled plan directly, then Server worker threads (no
    # pool fault site sits between a worker and its loop, so a POOL_TASK
    # fault can only fail a forward that fans out on the global pool, and
    # that request gets a definite answer), then the Fleet and its daemon.
    run_pair "$seed" "$build_dir/tests/plan_test" 600
    run_pair "$seed" "$build_dir/tests/serve_test" 600
    run_pair "$seed" "$build_dir/tests/fleet_test" 600
  done
fi

echo
if [ "$failures" -ne 0 ]; then
  echo "fault soak: $failures failure(s)"
  exit 1
fi
echo "fault soak: all seeds recovered"
