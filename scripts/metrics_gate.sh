#!/usr/bin/env bash
# Metrics regression gate: run the canned CI fleet (ci/fleet-specs.jsonl —
# policies, fault lanes and a forced reschedule included) and diff its
# merged metrics.json against the committed baseline with
# `qoed_cli metrics-diff`. The whole pipeline is deterministic, so the
# baseline is a behavioral fingerprint: any counter/gauge/histogram drift
# means the simulation or analysis changed and must be explained (and the
# baseline regenerated with --update).
#
# The merged findings.jsonl, timeline.jsonl and captures.jsonl must also
# hash to the sha256 sums committed in ci/baseline-artifacts.sha256, so
# their bytes are held across commits, not only between two jobs counts.
#
# Also self-tests the gate's teeth (an injected drift must exit 4) and the
# closed-loop determinism contract (jobs=1 vs jobs=8 fleet artifacts,
# captures.jsonl included, must be byte-identical), checks that
# `fleet --merge-only` over a copy of the shards rebuilds the same merged
# bytes beside them (also pinned to one CPU, so the final merge runs on one
# thread) and fails when a manifest-listed shard is missing, that
# 300 one-run shards merge under a 256-descriptor limit to the bytes of the
# same fleet cut into few shards, that a `qoed_cli post` single run leaves
# the same artifacts as the fleet run of the same spec, that bad flags to
# any command and malformed spec lines exit 2, and that an output that
# cannot be written leaves no temp file.
#
# usage: metrics_gate.sh path/to/qoed_cli [workdir] [--update]
set -euo pipefail

CLI=${1:?usage: metrics_gate.sh path/to/qoed_cli [workdir] [--update]}
# Absolute, so the steps that run inside a work directory find it too.
CLI=$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")
WORK=${2:-$(mktemp -d)}
UPDATE=${3:-}
REPO=$(cd "$(dirname "$0")/.." && pwd)
SPECS="$REPO/ci/fleet-specs.jsonl"
BASELINE="$REPO/ci/baseline-metrics.json"
ARTIFACT_SUMS="$REPO/ci/baseline-artifacts.sha256"
mkdir -p "$WORK"

run_fleet() { # jobs out_dir
  mkdir -p "$2"
  "$CLI" fleet --specs="$SPECS" --jobs="$1" --out-dir="$2" > "$2/fleet.log"
}

run_fleet 8 "$WORK/fleet-j8"
CURRENT="$WORK/fleet-j8/metrics.json"

if [ "$UPDATE" = "--update" ]; then
  cp "$CURRENT" "$BASELINE"
  (cd "$WORK/fleet-j8" &&
     sha256sum findings.jsonl timeline.jsonl captures.jsonl) > "$ARTIFACT_SUMS"
  echo "metrics gate: baselines regenerated at $BASELINE and $ARTIFACT_SUMS"
  exit 0
fi

# The merged artifacts keep their committed bytes.
if ! (cd "$WORK/fleet-j8" && sha256sum --check --quiet "$ARTIFACT_SUMS"); then
  echo "metrics gate: merged artifacts differ from $ARTIFACT_SUMS"
  exit 1
fi

# Policy decisions are jobs-invariant: the same fleet at jobs=1 must leave
# byte-identical merged artifacts, targeted-capture slices included.
run_fleet 1 "$WORK/fleet-j1"
for f in MANIFEST.json findings.jsonl timeline.jsonl metrics.json \
         captures.jsonl; do
  cmp "$WORK/fleet-j1/$f" "$WORK/fleet-j8/$f"
done

# Merge-only rebuild: the manifest and the numbered shards, copied into a
# fresh directory, must merge to the bytes the campaign wrote. The merged
# artifacts always land beside the shards they merge.
REMERGE="$WORK/remerge"
rm -rf "$REMERGE"
mkdir -p "$REMERGE"
cp "$WORK/fleet-j8/MANIFEST.json" "$WORK/fleet-j8"/*-[0-9]*.jsonl "$REMERGE/"
"$CLI" fleet --merge-only --out-dir="$REMERGE" > "$WORK/remerge.log"
for f in findings.jsonl timeline.jsonl metrics.json captures.jsonl; do
  cmp "$WORK/fleet-j8/$f" "$REMERGE/$f"
done

# The final timeline merge runs on as many threads as the process's CPU
# affinity mask holds: pinned to one CPU, the merge-only rebuild must give
# the same bytes as the campaign's own merge.
ONE_CPU="$WORK/remerge-one-cpu"
rm -rf "$ONE_CPU"
mkdir -p "$ONE_CPU"
cp "$WORK/fleet-j8/MANIFEST.json" "$WORK/fleet-j8"/*-[0-9]*.jsonl "$ONE_CPU/"
taskset -c 0 "$CLI" fleet --merge-only --out-dir="$ONE_CPU" \
  > "$WORK/remerge-one-cpu.log"
for f in findings.jsonl timeline.jsonl metrics.json captures.jsonl; do
  cmp "$WORK/fleet-j8/$f" "$ONE_CPU/$f"
done

# A manifest-listed timeline shard that is missing fails the merge: non-zero
# exit, and no merged timeline written from the shards that are left.
MISSING="$WORK/missing-shard"
rm -rf "$MISSING"
mkdir -p "$MISSING"
cp "$WORK/fleet-j8/MANIFEST.json" "$WORK/fleet-j8"/*-[0-9]*.jsonl "$MISSING/"
rm "$MISSING/timeline-000000.jsonl"
rc=0
"$CLI" fleet --merge-only --out-dir="$MISSING" > "$MISSING/merge.log" || rc=$?
if [ "$rc" -eq 0 ] || [ -e "$MISSING/timeline.jsonl" ]; then
  echo "metrics gate: merge over a missing timeline shard: expected a failure" \
    "and no timeline.jsonl, got exit $rc"
  cat "$MISSING/merge.log"
  exit 1
fi

# The final timeline merge holds a bounded number of shards open: 300
# one-run shards merge under a 256-descriptor limit (in passes through temp
# files, none left behind) to the bytes the same fleet writes cut into a
# few shards.
FANIN="$WORK/fan-in"
rm -rf "$FANIN"
mkdir -p "$FANIN/one-run" "$FANIN/few" "$FANIN/remerge"
for i in $(seq 1 300); do
  echo "{\"scenario\":\"post\",\"network\":\"wifi\",\"reps\":0,\"seed\":$i,\"arrival\":$((i % 7))}"
done > "$FANIN/specs.jsonl"
"$CLI" fleet --specs="$FANIN/specs.jsonl" --out-dir="$FANIN/one-run" \
  --jobs=4 --shard-runs=1 > "$FANIN/one-run.log"
"$CLI" fleet --specs="$FANIN/specs.jsonl" --out-dir="$FANIN/few" --jobs=4 \
  > "$FANIN/few.log"
cp "$FANIN/one-run/MANIFEST.json" "$FANIN/one-run"/*-[0-9]*.jsonl \
  "$FANIN/remerge/"
(ulimit -n 256 && "$CLI" fleet --merge-only --out-dir="$FANIN/remerge") \
  > "$FANIN/remerge.log"
for f in findings.jsonl timeline.jsonl metrics.json captures.jsonl; do
  cmp "$FANIN/few/$f" "$FANIN/remerge/$f"
done
if [ -n "$(find "$FANIN/remerge" -name '*.tmp')" ]; then
  echo "metrics gate: the fan-in merge left a temp file behind"
  exit 1
fi

# The gate proper: exact match required (prof.* wall-clock keys are ignored
# by the built-in +inf tolerance).
"$CLI" metrics-diff "$BASELINE" "$CURRENT"

# Negative self-test: a gate that cannot fail protects nothing. Perturb one
# counter in a copy of the current snapshot and require exit code 4.
TAMPERED="$WORK/tampered-metrics.json"
sed 's/"campaign.rescheduled":/"campaign.rescheduled_renamed":/' \
  "$CURRENT" > "$TAMPERED"
cmp -s "$CURRENT" "$TAMPERED" && {
  echo "metrics gate: self-test could not inject a regression"; exit 1; }
rc=0
"$CLI" metrics-diff "$BASELINE" "$TAMPERED" > "$WORK/selftest.log" || rc=$?
if [ "$rc" -ne 4 ]; then
  echo "metrics gate: self-test expected exit 4 on injected drift, got $rc"
  cat "$WORK/selftest.log"
  exit 1
fi

# CLI-fleet parity: single runs and fleet runs share one run pipeline, so
# line 5 of the CI specs run alone as a fleet and the same spec given as
# `qoed_cli post` flags must leave the same timeline, the same findings
# (minus the fleet's run stamp) and the same metrics (minus the campaign's
# outcome counters).
PARITY="$WORK/parity"
mkdir -p "$PARITY/fleet"
sed -n 5p "$SPECS" > "$PARITY/spec.jsonl"
"$CLI" fleet --specs="$PARITY/spec.jsonl" --out-dir="$PARITY/fleet" \
  > "$PARITY/fleet.log"
(cd "$PARITY" && "$CLI" post --kind=photos --reps=2 --seed=205 \
  --fault-plan=packet:drop=0.02 --fault-seed=7 \
  --policy='on window.latency_s>4: extend 10s' --timeline=run-0.jsonl \
  --findings=cli-findings.jsonl --metrics=cli-metrics.json > cli.log)
"$CLI" merge "$PARITY/run-0.jsonl" > "$PARITY/cli-timeline.jsonl"
cmp "$PARITY/cli-timeline.jsonl" "$PARITY/fleet/timeline.jsonl"
sed 's/^{"run":0,/{/' "$PARITY/fleet/findings.jsonl" \
  > "$PARITY/fleet-findings.jsonl"
cmp "$PARITY/fleet-findings.jsonl" "$PARITY/cli-findings.jsonl"
"$CLI" metrics-diff "$PARITY/fleet/metrics.json" "$PARITY/cli-metrics.json" \
  --tol=campaign.=inf

# Single-run flags pass the spec checks and every command checks its own
# flags: a bad value, a malformed number or an unknown flag (including the
# flags of the retired in-memory fleet mode and merged-artifact path
# overrides, a cell spec flag beside a spec file, and a count too large for
# its field, which used to be truncated) exits 2 instead of running
# something else, and writes nothing. The cell spec file itself is
# valid: it runs alone.
BAD_POP="$WORK/bad-pop.jsonl"
BAD_CELL="$WORK/bad-cell.jsonl"
CELL_SPEC="$WORK/cell-spec.json"
rm -rf "$WORK/bad-fleet" "$BAD_POP" "$BAD_CELL"
echo '{"network":"3g","seed":1,"devices":[{"app":"browser","actions":1}]}' \
  > "$CELL_SPEC"
"$CLI" cell --spec-file="$CELL_SPEC" > "$WORK/cell-spec.log"
for bad in "pageload --network=ltee" "video --throttle_kbps=200" \
           "fleet --specs=$SPECS --out-dir=$WORK/bad-fleet --memory" \
           "fleet --specs=$SPECS --out-dir=$WORK/bad-fleet --jobs=abc" \
           "fleet --specs=$SPECS --out-dir=$WORK/bad-fleet --timeline=$BAD_POP" \
           "serve --out-dir=$WORK/bad-fleet --jobs=abc" \
           "serve --out-dir=$WORK/bad-fleet --jbos=4" \
           "pop --users=abc --out=$BAD_POP" "pop --userz=3 --out=$BAD_POP" \
           "pop --network=ltee --mechanism=police --out=$BAD_POP" \
           "pop --mix=0.4,x --out=$BAD_POP" "pop --diurnal=flatt --out=$BAD_POP" \
           "cell --devices=1 --actions=1 --capacity=2Mbps --bogus=1" \
           "cell --spec-file=$CELL_SPEC --devices=5 --timeline=$BAD_CELL" \
           "cell --devices=4294967297 --actions=0 --timeline=$BAD_CELL" \
           "pop --days=4294967297 --out=$BAD_POP"; do
  rc=0
  # shellcheck disable=SC2086  # word-split the subcommand and its flag
  "$CLI" $bad < /dev/null > "$WORK/bad-input.log" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "metrics gate: qoed_cli $bad: expected exit 2, got $rc"
    cat "$WORK/bad-input.log"
    exit 1
  fi
done
# Spec lines go through the one JSON reader: a negative count, seed or
# throttle, a number JSON does not write, an integer with a fraction or
# exponent, and a missing comma are refused by line and key (exit 2)
# before anything runs. Under `timeout`, since a count read past its range
# used to run forever.
BAD_SPECS="$WORK/bad-specs"
rm -rf "$BAD_SPECS"
mkdir -p "$BAD_SPECS"
n=0
for spec in '{"scenario":"video","videos":-1}' \
            '{"scenario":"post","reps":1e300}' \
            '{"scenario":"pageload","pages":0x10}' \
            '{"scenario":"pageload","pages":1,"seed":-1}' \
            '{"scenario":"video","videos":1,"throttle":-300}' \
            '{"scenario":"pageload","pages":9 "seed":4}'; do
  n=$((n + 1))
  echo "$spec" > "$BAD_SPECS/$n.jsonl"
  rc=0
  timeout 30 "$CLI" fleet --specs="$BAD_SPECS/$n.jsonl" \
    --out-dir="$WORK/bad-fleet" > "$WORK/bad-input.log" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q ':1: spec: .*"' "$WORK/bad-input.log"; then
    echo "metrics gate: fleet spec $spec: expected exit 2 naming line and" \
      "key, got $rc"
    cat "$WORK/bad-input.log"
    exit 1
  fi
done
echo '{"seed":1,"grants":-1,"devices":[{"app":"browser","actions":1}]}' \
  > "$BAD_SPECS/cell.json"
rc=0
timeout 30 "$CLI" cell --spec-file="$BAD_SPECS/cell.json" \
  --timeline="$BAD_CELL" > "$WORK/bad-input.log" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "metrics gate: cell spec with \"grants\":-1: expected exit 2, got $rc"
  cat "$WORK/bad-input.log"
  exit 1
fi
for wrote in "$WORK/bad-fleet" "$BAD_POP" "$BAD_CELL"; do
  if [ -e "$wrote" ]; then
    echo "metrics gate: a command with bad input still wrote $wrote"
    exit 1
  fi
done

# Every output goes through the one atomic writer: a merge whose --out is a
# directory fails (exit 1) and leaves no temp file beside it.
mkdir -p "$WORK/out-is-dir"
rc=0
"$CLI" merge --out="$WORK/out-is-dir" "$PARITY/run-0.jsonl" \
  > "$WORK/out-is-dir.log" || rc=$?
if [ "$rc" -ne 1 ] || [ -e "$WORK/out-is-dir.tmp" ]; then
  echo "metrics gate: merge --out onto a directory: expected exit 1 and no" \
    "temp file, got exit $rc"
  exit 1
fi

echo "metrics gate OK: jobs-invariant, artifact sums matched, merge-only" \
  "rebuilds the same bytes (also on one CPU) and fails on a missing shard," \
  "300 shards merge" \
  "under 256 descriptors, baseline matched, self-test exits 4, CLI matches" \
  "fleet, bad input exits 2, a failed write leaves no temp file"
