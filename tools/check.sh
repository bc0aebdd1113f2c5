#!/usr/bin/env bash
# One-command verification: configure + build + ctest (the tier-1 sequence)
# plus the perf smoke bench. Intended for CI and pre-commit use.
#
#   tools/check.sh            # tier-1 + quick perf smoke
#   tools/check.sh --full     # also run the Orkut-analog perf bench
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== perf smoke (bench_perf_steps) =="
PERF_ARGS=()
if [[ "${1:-}" == "--full" ]]; then
  PERF_ARGS+=(--full)
fi
"$BUILD_DIR/bench_perf_steps" --out="$BUILD_DIR/bench_results" \
  --json-out="$BUILD_DIR/bench_results" "${PERF_ARGS[@]}"

echo "== scenario smoke (bench_scenarios) =="
# Small-rep sweep over every scenario preset; exits nonzero if any
# deterministic scenario deviates from RunSweep (see bench_scenarios.cc).
"$BUILD_DIR/bench_scenarios" --reps=6 --out="$BUILD_DIR/bench_results" \
  --json-out="$BUILD_DIR/bench_results"

echo "== store smoke (graphstore_cli convert -> verify -> estimate) =="
# Streamed synthetic snapshot -> deep verification -> an estimate served
# from the mmap-backed zero-copy backend, plus the text->store convert path.
STORE_DIR="$BUILD_DIR/store_smoke"
mkdir -p "$STORE_DIR"
"$BUILD_DIR/graphstore_cli" synth --nodes=20000 --attach=5 --seed=11 \
  --out="$STORE_DIR/smoke.lgs"
"$BUILD_DIR/graphstore_cli" verify --store="$STORE_DIR/smoke.lgs"
"$BUILD_DIR/graphstore_cli" info --store="$STORE_DIR/smoke.lgs" > /dev/null
"$BUILD_DIR/labelrw_cli" estimate --store="$STORE_DIR/smoke.lgs" \
  --t1=1 --t2=2 --budget=500 --algorithm=NeighborSample-HH \
  --burn-in=200 --seed=7
printf '0 1\n0 2\n1 2\n' > "$STORE_DIR/tiny.txt"
"$BUILD_DIR/graphstore_cli" convert --graph="$STORE_DIR/tiny.txt" --lcc \
  --out="$STORE_DIR/tiny.lgs"
"$BUILD_DIR/graphstore_cli" verify --store="$STORE_DIR/tiny.lgs"

echo "== batch smoke (bench_walk_batch: scalar-vs-batch-vs-reorder identity) =="
# Small synthetic store; the graph is cache-resident so memory-level
# parallelism has nothing to hide — --min-speedup=0 keeps only the
# bit-identity guards (interleaved AND reorder walk positions, plus
# walk_batch_size=16 interleaved/reorder sweep estimates vs scalar) as
# the pass/fail signal. --reorder also exercises the sort-the-misses
# measurement path end to end.
"$BUILD_DIR/bench_walk_batch" --nodes=20000 --moves=20000 --min-speedup=0 \
  --reorder --passes=1 --store="$STORE_DIR/smoke.lgs" \
  --out="$BUILD_DIR/bench_results" --json-out="$BUILD_DIR/bench_results"

echo "== store bench (bench_store: load speedup + bit-identity guard) =="
# Exits nonzero if any algorithm deviates on the store backend or the
# ready-to-walk speedup falls below 10x.
"$BUILD_DIR/bench_store" --out="$BUILD_DIR/bench_results" \
  --json-out="$BUILD_DIR/bench_results"

echo "== chaos smoke (labelrw_cli: halt-checkpoint-resume bit-identity) =="
# A crawl under the 'storm' fault schedule, killed after 5 iterations
# (exit 3 = deliberate halt-checkpoint) and resumed, must land on the
# same estimate as an uninterrupted run.
CKPT_DIR="$BUILD_DIR/chaos_smoke"
rm -rf "$CKPT_DIR" && mkdir -p "$CKPT_DIR"
CHAOS_ARGS=(estimate --store="$STORE_DIR/smoke.lgs" --t1=1 --t2=2
  --budget=800 --algorithm=NeighborSample-HH --burn-in=100 --seed=7
  --scenario=production --chaos=storm)
"$BUILD_DIR/labelrw_cli" "${CHAOS_ARGS[@]}" > "$CKPT_DIR/reference.txt"
HALT_RC=0
"$BUILD_DIR/labelrw_cli" "${CHAOS_ARGS[@]}" --checkpoint-dir="$CKPT_DIR" \
  --halt-after-steps=5 > /dev/null || HALT_RC=$?
if [[ "$HALT_RC" -ne 3 ]]; then
  echo "chaos smoke: expected halt-checkpoint exit code 3, got $HALT_RC" >&2
  exit 1
fi
"$BUILD_DIR/labelrw_cli" "${CHAOS_ARGS[@]}" --checkpoint-dir="$CKPT_DIR" \
  > "$CKPT_DIR/resumed.txt"
if ! diff <(grep '^estimate' "$CKPT_DIR/reference.txt") \
          <(grep '^estimate' "$CKPT_DIR/resumed.txt"); then
  echo "chaos smoke: resumed estimate deviates from uninterrupted run" >&2
  exit 1
fi

echo "== server smoke (shard -> serve -> estimate over ipc) =="
# Shard the smoke snapshot, serve it from a labelrw_serverd daemon, and
# require the estimate fetched over the shared-memory transport to be
# bit-identical to the mmap store backend. Also checks the documented
# exit code 8 (no daemon at the shm name) and a clean daemon shutdown.
SERVER_DIR="$BUILD_DIR/server_smoke"
rm -rf "$SERVER_DIR" && mkdir -p "$SERVER_DIR"
SHM_NAME="/labelrw-check-$$"
"$BUILD_DIR/graphstore_cli" shard --store="$STORE_DIR/smoke.lgs" \
  --out="$SERVER_DIR/smoke" --shards=4
"$BUILD_DIR/graphstore_cli" verify --manifest="$SERVER_DIR/smoke.manifest"
NO_SERVER_RC=0
"$BUILD_DIR/labelrw_cli" estimate --backend=ipc --server="$SHM_NAME" \
  --t1=1 --t2=2 --budget=500 --algorithm=NeighborSample-HH \
  --burn-in=200 --seed=7 > /dev/null 2>&1 || NO_SERVER_RC=$?
if [[ "$NO_SERVER_RC" -ne 8 ]]; then
  echo "server smoke: expected exit 8 with no daemon, got $NO_SERVER_RC" >&2
  exit 1
fi
"$BUILD_DIR/labelrw_serverd" --manifest="$SERVER_DIR/smoke.manifest" \
  --shm="$SHM_NAME" --ready-file="$SERVER_DIR/ready" --quiet &
SERVERD_PID=$!
for _ in $(seq 1 100); do
  [[ -e "$SERVER_DIR/ready" ]] && break
  sleep 0.1
done
if [[ ! -e "$SERVER_DIR/ready" ]]; then
  echo "server smoke: daemon never became ready" >&2
  kill "$SERVERD_PID" 2>/dev/null || true
  exit 1
fi
IPC_ARGS=(estimate --t1=1 --t2=2 --budget=500
  --algorithm=NeighborSample-HH --burn-in=200 --seed=7)
"$BUILD_DIR/labelrw_cli" "${IPC_ARGS[@]}" --backend=ipc \
  --server="$SHM_NAME" > "$SERVER_DIR/via_ipc.txt"
"$BUILD_DIR/labelrw_cli" "${IPC_ARGS[@]}" --backend=store \
  --store="$STORE_DIR/smoke.lgs" > "$SERVER_DIR/via_store.txt"
if ! diff <(grep '^estimate' "$SERVER_DIR/via_ipc.txt") \
          <(grep '^estimate' "$SERVER_DIR/via_store.txt"); then
  echo "server smoke: ipc estimate deviates from the store backend" >&2
  kill "$SERVERD_PID" 2>/dev/null || true
  exit 1
fi
kill -TERM "$SERVERD_PID"
wait "$SERVERD_PID" || {
  echo "server smoke: daemon did not exit cleanly on SIGTERM" >&2
  exit 1
}

echo "== daemon shutdown at readiness (20 daemons) =="
# Each daemon is sent SIGTERM the moment its ready file appears. It must
# exit 0 and leave neither the ready file nor its shm slab behind.
for i in $(seq 1 20); do
  READY="$SERVER_DIR/ready-$i"
  READY_SHM="/labelrw-check-$$-$i"
  "$BUILD_DIR/labelrw_serverd" --manifest="$SERVER_DIR/smoke.manifest" \
    --shm="$READY_SHM" --ready-file="$READY" --quiet &
  READY_PID=$!
  READY_DEADLINE=$((SECONDS + 10))
  until [[ -e "$READY" ]]; do
    if ! kill -0 "$READY_PID" 2>/dev/null || ((SECONDS >= READY_DEADLINE)); then
      echo "readiness loop: daemon $i never became ready" >&2
      kill "$READY_PID" 2>/dev/null || true
      exit 1
    fi
  done
  kill -TERM "$READY_PID"
  READY_RC=0
  wait "$READY_PID" || READY_RC=$?
  if [[ "$READY_RC" -ne 0 ]]; then
    echo "readiness loop: daemon $i exited $READY_RC on SIGTERM" >&2
    exit 1
  fi
  if [[ -e "$READY" || -e "/dev/shm$READY_SHM" ]]; then
    echo "readiness loop: daemon $i left its ready file or slab behind" >&2
    exit 1
  fi
done

echo "== traffic smoke (bench_traffic: 1k tenants, cross-thread identity) =="
# One 1,000-tenant cell of the multi-tenant traffic engine against the
# smoke store, run at sweep worker counts {1,2,4}; exits nonzero if the
# per-tenant SLO tables deviate across thread counts or nothing completes.
TRAFFIC_DIR="$BUILD_DIR/traffic_smoke"
rm -rf "$TRAFFIC_DIR" && mkdir -p "$TRAFFIC_DIR"
"$BUILD_DIR/bench_traffic" --backend=store --store="$STORE_DIR/smoke.lgs" \
  --tenants=1000 --quota=1.0 --threads-check=1,2,4 --budget=100 \
  --burn-in=30 --out="$TRAFFIC_DIR" --json-out="$TRAFFIC_DIR"

echo "== traffic CLI smoke (labelrw_cli traffic: halt-resume identity) =="
# A 50-tenant storm simulation killed mid-run (exit 3) and resumed must
# land on the identical per-tenant table hash as an uninterrupted run.
TRAFFIC_CLI_DIR="$BUILD_DIR/traffic_cli_smoke"
rm -rf "$TRAFFIC_CLI_DIR" && mkdir -p "$TRAFFIC_CLI_DIR"
TRAFFIC_ARGS=(traffic --store="$STORE_DIR/smoke.lgs" --t1=1 --t2=2
  --tenants=50 --traffic-scenario=storm --budget=80 --burn-in=20)
"$BUILD_DIR/labelrw_cli" "${TRAFFIC_ARGS[@]}" \
  > "$TRAFFIC_CLI_DIR/reference.txt"
TRAFFIC_HALT_RC=0
"$BUILD_DIR/labelrw_cli" "${TRAFFIC_ARGS[@]}" \
  --checkpoint-dir="$TRAFFIC_CLI_DIR" --halt-after-events=2000 \
  > /dev/null || TRAFFIC_HALT_RC=$?
if [[ "$TRAFFIC_HALT_RC" -ne 3 ]]; then
  echo "traffic smoke: expected halt-checkpoint exit 3, got $TRAFFIC_HALT_RC" >&2
  exit 1
fi
"$BUILD_DIR/labelrw_cli" "${TRAFFIC_ARGS[@]}" \
  --checkpoint-dir="$TRAFFIC_CLI_DIR" > "$TRAFFIC_CLI_DIR/resumed.txt"
if ! diff <(grep '^table hash' "$TRAFFIC_CLI_DIR/reference.txt") \
          <(grep '^table hash' "$TRAFFIC_CLI_DIR/resumed.txt"); then
  echo "traffic smoke: resumed run deviates from uninterrupted run" >&2
  exit 1
fi

echo "== resilience bench (bench_resilience: chaos + checkpoint guards) =="
# Exits nonzero if any chaos preset is nondeterministic, a durable sweep
# deviates from RunSweep, or kill-and-resume is not bit-identical.
"$BUILD_DIR/bench_resilience" --reps=6 --out="$BUILD_DIR/bench_results" \
  --json-out="$BUILD_DIR/bench_results"

echo "OK"
