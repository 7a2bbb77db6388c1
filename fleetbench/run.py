#!/usr/bin/env python3
"""End-to-end fleet benchmark: seeded populations through the real fleet path.

    python3 fleetbench/run.py --workload fleet-mix --seed 1 --seconds 36 --trace 0

Builds fleetbench/ (which compiles the repository's src/ libraries) into
.bench_build/, then runs repetitions of the workload, one child process per
repetition, until --seconds have been spent (at least two repetitions, so the
merged-artifact digests can be compared). Every repetition of one invocation
runs the same inputs, made from --seed.

--trace 0 reports the end-to-end metrics as medians over the repetitions.
--trace 1 alternates untraced and traced repetitions and reports the per-layer
metrics as medians over the traced ones, plus the tracing overhead (traced vs
untraced wall). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. fleetbench/README.md describes
the workloads and every metric.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "fleetbench"

# Upper bound on what one repetition leaves on disk (shards + merged files),
# measured over seeds 1-10 and doubled. A workload refuses to start when the
# build directory's file system has less free space than this.
DISK_BYTES = {
    "fleet-mix": 1_200_000_000,
    "fleet-video-throttled": 3_100_000_000,
    "cell-contention": 2_200_000_000,
}

MIN_REPS = 2
# A repetition that runs longer than this is killed and the run fails; the
# MIN_REPS repetitions then end well within three minutes.
REP_TIMEOUT_S = 75

# Metric names and units, as BENCHMARK.json declares them.
with open(ROOT / "BENCHMARK.json") as f:
    _DECLARED = json.load(f)
E2E_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures and builds fleetbench; returns the binary path or None."""
    cmake_dir = bdir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "build.log"
    with open(bdir / "build.lock", "w") as lock, open(logfile, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "fleetbench", "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                if cmd[1] == "-S":
                    shutil.rmtree(cmake_dir, ignore_errors=True)
                log(f"fleetbench: build failed, see {logfile}")
                return None
    return cmake_dir / "fleetbench"


def run_child(cmd, timeout_s):
    """Runs one repetition; returns (exit status, stdout, rusage)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, out.decode(errors="replace"), rusage


def run_rep(binary, args, bdir, k, traced):
    out_dir = bdir / "out" / f"{args.workload}-{args.seed}-{os.getpid()}-{k}"
    cmd = [str(binary), "rep", "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out_dir),
           "--traced", "1" if traced else "0"]
    if traced:
        trace_dir = bdir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        status, out, rusage = run_child(cmd, REP_TIMEOUT_S)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if status != 0 or not lines:
        log(f"fleetbench: repetition {k} exited with {status}")
        return None
    rep = json.loads(lines[-1])
    rep["peak_rss_mib"] = rusage.ru_maxrss / 1024.0  # Linux: KiB
    return rep


def reps_note(values):
    if len(values) < 2:
        return ""
    return " (reps: " + ", ".join(f"{v:.4g}" for v in values) + ")"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DISK_BYTES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2

    if subprocess.run([str(binary), "selftest"],
                      stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("fleetbench: selftest failed")
        return 3

    free = shutil.disk_usage(bdir).free
    need = DISK_BYTES[args.workload]
    if free < need:
        log(f"fleetbench: {args.workload} writes up to {need / 1e9:.1f} GB "
            f"per repetition; only {free / 1e9:.1f} GB free")
        return 4

    t0 = time.monotonic()
    reps = []
    longest = 0.0
    # MIN_REPS repetitions, then more while the next one should end in time.
    while (len(reps) < MIN_REPS
           or time.monotonic() - t0 + longest <= args.seconds):
        traced = args.trace == 1 and len(reps) % 2 == 1
        start = time.monotonic()
        rep = run_rep(binary, args, bdir, len(reps), traced)
        if rep is None:
            return 5
        longest = max(longest, time.monotonic() - start)
        reps.append(rep)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["runs_failed"] for r in reps)
    problems = [f"rep {i}: {r['failures']}" for i, r in enumerate(reps)
                if r["failures"]]
    differ = [f"{name} digest" for name in reps[0]["digests"]
              if len({r["digests"].get(name) for r in reps}) != 1]
    differ += [key for key in reps[0]["counts"]
               if len({r["counts"][key] for r in reps}) != 1]
    if differ:
        # Every repetition ran the same inputs, so no run's output can be
        # trusted.
        problems += [f"{d} differs across repetitions" for d in differ]
        failed = attempted

    first = reps[0]
    session_h = first["session_s"] / 3600.0
    virtual_h = first["virtual_s"] / 3600.0

    def med(fn, rs):
        return statistics.median(fn(r) for r in rs)

    print(f"fleetbench {args.workload} seed={args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions of "
          f"{first['runs']} runs on {first['jobs']} jobs")
    print(f"  session {session_h:.4f} device-hours; virtual {virtual_h:.1f} "
          f"device-hours ({virtual_h / session_h:.0f}x session)")
    for name, digest in sorted(first["digests"].items()):
        print(f"  digest {name} {digest}")
    print(f"  runs_failed_frac {failed / attempted:.4g} ratio "
          f"({failed} of {attempted} runs)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    if args.trace == 0:
        walls = [r["wall_s"] for r in untraced]
        metrics = {
            "session_dh_per_s":
                med(lambda r: r["session_s"] / 3600.0 / r["wall_s"], untraced),
            "cpu_s_per_dh":
                med(lambda r: r["cpu_s"] / (r["session_s"] / 3600.0), untraced),
            "artifact_mb_per_dh":
                med(lambda r: r["artifact_bytes"] / 1e6 /
                    (r["session_s"] / 3600.0), untraced),
            "setup_s": statistics.median(
                s for r in untraced for s in r["setup_s"]),
            "runs_ok_frac": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
        print(f"  wall_s{reps_note(walls)}")
    else:
        # Counts repeat exactly (checked above); timings are medians.
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics.update(first["counts"])
        t_wall = statistics.median(r["wall_s"] for r in traced)
        u_wall = statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_frac"] = t_wall / u_wall - 1
        metrics["process.peak_rss_mib"] = med(lambda r: r["peak_rss_mib"], reps)
        units = LAYER_UNITS
        print(f"  tracing overhead: traced wall {t_wall:.4f} s vs untraced "
              f"{u_wall:.4f} s")
        q = metrics["svc.run_s.tail_q"]
        print(f"  svc.run_s.tail is the {'max' if q == 1 else f'p{q * 100:.0f}'}"
              f" of {metrics['svc.run_s.n']:.0f} runs (the highest percentile"
              f" of p99/p95/p90/p75 with at least 10 runs beyond it; p95"
              f" needs 200 runs)")

    metrics = {k: metrics[k] for k in units}  # fixed order, all present
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
