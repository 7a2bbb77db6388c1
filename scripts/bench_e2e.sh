#!/usr/bin/env bash
# End-to-end performance trajectory: runs the benchmark BENCHMARK.json
# declares (fleetbench/run.py) once per workload at seed 1 for 30 s and
# appends one JSON line per workload to BENCH_e2e.json:
#
#   {"commit":"19301c4","date":"2026-10-18T08:30:00Z","cpus":4,
#    "workload":"fleet-mix","seed":1,"seconds":30,"result":{...}}
#
# `result` is run.py's last output line as printed ("correct", "attempted",
# "failed", "metrics"). The commit defaults to `git describe --always
# --dirty` of the checkout measured, so a row taken on uncommitted changes
# reads "<parent>-dirty". Run it from any checkout; --commit names one that
# is not a git work tree (e.g. an exported copy of an older commit).
#
# usage: scripts/bench_e2e.sh [--commit ID] [--out FILE]
set -euo pipefail

REPO=$(cd "$(dirname "$0")/.." && pwd)
OUT="$REPO/BENCH_e2e.json"
COMMIT=""
while [ $# -gt 0 ]; do
  case "$1" in
    --commit) COMMIT=${2:?--commit needs a value}; shift 2 ;;
    --out) OUT=${2:?--out needs a value}; shift 2 ;;
    *) echo "usage: $0 [--commit ID] [--out FILE]" >&2
       exit 2 ;;
  esac
done
if [ -z "$COMMIT" ]; then
  COMMIT=$(git -C "$REPO" describe --always --dirty)
fi
mapfile -t WORKLOADS < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$REPO/BENCHMARK.json")

SEED=1
SECONDS_PER_WORKLOAD=30
for workload in "${WORKLOADS[@]}"; do
  result=$(python3 "$REPO/fleetbench/run.py" --workload "$workload" \
             --seed "$SEED" --seconds "$SECONDS_PER_WORKLOAD" | tail -n 1)
  python3 -c '
import datetime, json, os, sys
commit, workload, seed, seconds, result = sys.argv[1:6]
row = {
    "commit": commit,
    "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "cpus": os.cpu_count(),
    "workload": workload,
    "seed": int(seed),
    "seconds": float(seconds),
    "result": json.loads(result),
}
print(json.dumps(row, separators=(",", ":")))' \
    "$COMMIT" "$workload" "$SEED" "$SECONDS_PER_WORKLOAD" "$result" >> "$OUT"
  echo "bench_e2e: $COMMIT $workload appended to $OUT" >&2
done
