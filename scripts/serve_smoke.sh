#!/usr/bin/env bash
# Serve-mode smoke: a scripted stdin client drives `qoed_cli serve`, and
# the session's merged artifacts must be byte-identical to a batch
# `qoed_cli fleet` run over the same spec list — at jobs=1 and jobs=4 —
# and its commit events identical between the two worker counts.
# This is the cross-mode determinism contract:
#   batch fleet == serve, at any worker count.
set -euo pipefail

CLI=${1:?usage: serve_smoke.sh path/to/qoed_cli [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

SPECS="$WORK/specs.jsonl"
cat > "$SPECS" <<'EOF'
{"scenario":"post","kind":"status","reps":2,"seed":101}
{"scenario":"pageload","network":"lte","pages":2,"seed":102}
{"scenario":"video","videos":1,"seed":103}
{"scenario":"post","kind":"photos","reps":2,"seed":104,"fault_plan":"packet:drop=0.02","fault_seed":7}
EOF

# Batch reference: a fleet over the same specs.
mkdir -p "$WORK/batch"
"$CLI" fleet --specs="$SPECS" --out-dir="$WORK/batch" --jobs=2

# Each spec line becomes a submit command by splicing in the cmd key. One
# malformed submit (a negative video count) goes in mid-session: it is
# refused by key, takes no run id, and the session keeps serving.
BAD_SUBMIT='{"cmd":"submit","scenario":"video","videos":-1}'
make_client() {
  local n=0
  while IFS= read -r spec; do
    printf '{"cmd":"submit",%s\n' "${spec#\{}"
    n=$((n + 1))
    if [ "$n" -eq 2 ]; then printf '%s\n' "$BAD_SUBMIT"; fi
  done < "$SPECS"
  printf '{"cmd":"status"}\n{"cmd":"drain"}\n{"cmd":"shutdown"}\n'
}

for jobs in 1 4; do
  dir="$WORK/serve-j$jobs"
  mkdir -p "$dir"
  make_client | "$CLI" serve --jobs="$jobs" --out-dir="$dir" \
    > "$WORK/serve-j$jobs.log"
  # The protocol stream carried one commit event per submitted run...
  runs=$(grep -c '"event":"run"' "$WORK/serve-j$jobs.log")
  [ "$runs" -eq 4 ] || { echo "expected 4 run events, got $runs"; exit 1; }
  grep -q '"shutdown":true,"runs":4' "$WORK/serve-j$jobs.log"
  # ...the malformed submit got the one refusal, naming its key...
  if [ "$(grep -c '"ok":false' "$WORK/serve-j$jobs.log")" -ne 1 ] ||
     ! grep -q '^{"ok":false,"error":".*\\"videos\\"' "$WORK/serve-j$jobs.log"
  then
    echo "expected one ok:false ack naming \"videos\""
    exit 1
  fi
  # ...and the merged artifacts match the batch fleet byte-for-byte.
  for f in findings.jsonl timeline.jsonl metrics.json captures.jsonl; do
    cmp "$WORK/batch/$f" "$dir/$f"
  done
  # Commit events (reschedules, findings, quarantines, run summaries) come
  # in submission order, so they do not depend on the worker count.
  grep '"event":' "$WORK/serve-j$jobs.log" > "$WORK/serve-j$jobs.events"
done
cmp "$WORK/serve-j1.events" "$WORK/serve-j4.events"

echo "serve smoke OK: serve(jobs=1,4) == batch fleet, artifacts byte-identical," \
  "events jobs-invariant, a malformed submit refused by key"
