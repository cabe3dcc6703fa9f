#!/usr/bin/env python3
"""Steadiness and comparison tool for the end-to-end benchmark.

    # N runs of one workload on seeds seed0 .. seed0+N-1; prints, per
    # end-to-end metric, the median, the quartiles and the spread
    # (Q3 - Q1) / median as a fraction of the metric's bound
    python3 perfbench/steady.py run --workload eco_sizing --runs 10 \
        [--seed0 1] [--seconds 10] [--trace 0] [--out eco.json]

    # two result sets of one workload (e.g. parent and change, same seeds)
    python3 perfbench/steady.py compare parent.json change.json

    # tracing overhead: alternating untraced/traced runs, end-to-end deltas
    python3 perfbench/steady.py overhead --workload eco_sizing --runs 3

Run from the root of a checkout; every run goes through perfbench/run.py.
Quartiles are statistics.quantiles(values, n=4), the same as the
acceptance rule uses.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds, trace):
    """Runs run.py once; returns the run record (all measured metrics)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if r.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} failed (exit {r.returncode})")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    rec = json.loads((bdir / "runs" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return {"seed": seed, "attempted": rec["attempted"], "failed": rec["failed"],
            "kinds": rec["kinds"],
            "metrics": {k: v["value"] for k, v in rec["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(result):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    runs = result["runs"]
    print(f"{result['workload']}: {len(runs)} runs, seeds "
          f"{[r['seed'] for r in runs]}, {result['seconds']} s each")
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>7}{'spread/bound':>14}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{bound:>7.2f}{spread / bound:>14.3f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}")


def cmd_run(a):
    runs = [one_run(a.workload, a.seed0 + i, a.seconds, a.trace)
            for i in range(a.runs)]
    result = {"workload": a.workload, "seconds": a.seconds, "trace": a.trace,
              "runs": runs}
    if a.out:
        Path(a.out).write_text(json.dumps(result, indent=1) + "\n")
    summarize(result)


def cmd_compare(a):
    parent = json.loads(Path(a.parent).read_text())
    change = json.loads(Path(a.change).read_text())
    print(f"{parent['workload']}: parent {len(parent['runs'])} runs, "
          f"change {len(change['runs'])} runs")
    by_seed = {r["seed"]: r for r in parent["runs"]}
    pairs = [(by_seed[r["seed"]], r) for r in change["runs"] if r["seed"] in by_seed]
    verdicts = []
    for m in spec()["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pv = [r["metrics"][name] for r in parent["runs"]]
        cv = [r["metrics"][name] for r in change["runs"]]
        pq1, pmed, pq3 = quartiles(pv)
        cmed = statistics.median(cv)
        worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
        wins = sum(1 for p, c in pairs
                   if (c["metrics"][name] < p["metrics"][name]) == lower
                   and c["metrics"][name] != p["metrics"][name])
        if worse > bound:
            v = "REGRESSION"
        elif pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1:
            v = "WIN"
        elif (pq3 - pq1) / pmed > bound:
            v = "unresolved"
        else:
            v = "no change"
        verdicts.append(v)
        print(f"{name:<14} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  change "
              f"{cmed:.6g}  worse by {worse:+.4f} (bound {bound})  wins "
              f"{wins}/{len(pairs)}  -> {v}")
    return 1 if "REGRESSION" in verdicts else 0


def cmd_overhead(a):
    rows = {0: [], 1: []}
    for i in range(a.runs):
        for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
            rows[trace].append(one_run(a.workload, a.seed0 + i, a.seconds, trace))
    print(f"{a.workload}: tracing overhead over {a.runs} alternating pairs")
    for m in spec()["end_to_end"]:
        name = m["name"]
        off = statistics.median(r["metrics"][name] for r in rows[0])
        on = statistics.median(r["metrics"][name] for r in rows[1])
        print(f"{name:<14} untraced {off:.6g}  traced {on:.6g}  "
              f"({(on - off) / off:+.2%})")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("run", "overhead"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed0", type=int, default=1)
        p.add_argument("--seconds", type=float,
                       default=spec()["run_seconds"])
        if name == "run":
            p.add_argument("--trace", type=int, choices=[0, 1], default=0)
            p.add_argument("--out")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    a = ap.parse_args()
    if a.cmd == "run":
        cmd_run(a)
    elif a.cmd == "overhead":
        cmd_overhead(a)
    else:
        return cmd_compare(a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
