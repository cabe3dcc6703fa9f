#!/usr/bin/env python3
"""One end-to-end benchmark run of the INSTA engine.

    python3 perfbench/run.py --workload eco_sizing|serve_fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (which pulls in
the repository's CMake project) into .bench_build/, runs the workload, and
prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (a layer the workload does
not exercise reads 0). Every run also leaves a run record with all
measured values, per-kind operation counts and provenance in
.bench_build/runs/. See perfbench/README.md.
"""
import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Set-up is measured this many times per run, each in a fresh process (a
# cold start is what a user sees); setup_s is the median. eco_sizing's
# sub-second set-up moves most with the host's load and costs little, so it
# is sampled more often than serve_fleet's 4 s one.
SETUP_SAMPLES = {"eco_sizing": 5, "serve_fleet": 3}
TARGETS = ["perfbench", "insta_cli", "telemetry_check"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(bdir):
    """Configures once, then rebuilds incrementally. Output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no INSTA source tree at {ROOT}; run from the root of a checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", *TARGETS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(bdir, args, deadline, setup_only=False):
    """Runs the workload in its own process group so a timeout also ends
    the servers it started. Returns (exit code, last JSON line or None)."""
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(0 if setup_only else args.trace),
           "--work-dir", str(bdir / "work"),
           "--cli", str(bdir / "insta" / "apps" / "insta_cli"),
           "--setup-only", "1" if setup_only else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{args.workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = [l for l in out.splitlines() if l.startswith("{")]
    return proc.returncode, json.loads(lines[-1]) if lines else None


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def validate_trace(bdir, path):
    r = subprocess.run([str(bdir / "insta" / "apps" / "telemetry_check"),
                        "--trace", path], stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="length of the timed phase (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log(f"missing {spec_path}")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    bdir = build_dir()
    if not build(bdir):
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        code, res = run_binary(bdir, args, deadline, setup_only=True)
        if code != 0 or res is None:
            log(f"{args.workload}: set-up run failed (exit {code})")
            return code or 1
        setups.append(res["metrics"]["setup_s"]["value"])
    code, res = run_binary(bdir, args, deadline)
    if res is None:
        log(f"{args.workload}: no result (exit {code})")
        return code or 1
    record = res.pop("record")
    measured = dict(res["metrics"])
    setups.append(measured["setup_s"]["value"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record["info"]["setup_samples_s"] = ",".join(f"{x:.6f}" for x in setups)

    if args.trace:
        trace_file = record["info"].get("trace_file", "")
        ok = bool(trace_file) and validate_trace(bdir, trace_file)
        if not ok:
            record["failed_checks"].append("traced output passes telemetry_check --trace")
            res["correct"] = False
        names = spec["per_layer"]
    else:
        names = spec["end_to_end"]
    res["metrics"] = {
        m["name"]: measured.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        for m in names}

    record.update({
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_describe": git_describe(),
        "seconds": args.seconds,
        "exit_code": code,
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": measured,
    })
    runs = bdir / "runs"
    runs.mkdir(exist_ok=True)
    rec_path = runs / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"run record: {rec_path}")
    log(f"{args.workload}: operations (attempted/failed) " + ", ".join(
        f"{k} {v['attempted']}/{v['failed']}" for k, v in record["kinds"].items()))
    for c in record["failed_checks"]:
        log(f"{args.workload}: check failed: {c}")

    print(json.dumps(res))
    return 0 if res["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
