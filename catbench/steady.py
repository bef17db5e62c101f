#!/usr/bin/env python3
"""Steadiness check: is each end-to-end metric steadier than its bound?

    python3 catbench/steady.py                      # every workload, seeds 1 and 2, 5 runs each
    python3 catbench/steady.py --workloads fv_field --seeds 1 2 3 4 5 --runs 1

Runs each workload repeatedly through catbench/run.py (--trace 0, for
BENCHMARK.json's run_seconds) and, for every end-to-end metric of
BENCHMARK.json, reports the median over all runs,
the spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, over the median) and the
metric's bound. A spread beyond the bound means the metric cannot tell a
regression of that size from noise; below a third of it leaves room for a
noisier machine.

Exits 1 when a spread exceeds its bound or a run fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Seed reserved for confirming a claimed gain after the change is written:
# never use it while developing or tuning.
HELD_OUT_SEED = 7919


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "catbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           + out.stderr[-2000:])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n"
                           + "\n".join(lines[-12:-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--runs", type=int, default=5, help="runs per seed")
    args = ap.parse_args()
    if HELD_OUT_SEED in args.seeds:
        print(f"seed {HELD_OUT_SEED} is held out for confirming claims",
              file=sys.stderr)
        return 2

    ok = True
    for w in args.workloads:
        runs = []
        for r in range(args.runs):
            for seed in args.seeds:
                try:
                    runs.append(run_once(w, seed, spec["run_seconds"]))
                except RuntimeError as e:
                    print(e, file=sys.stderr)
                    ok = False
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs, seeds {args.seeds}")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            s, med = spread(values)
            verdict = ("ok" if s <= m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "TOO NOISY")
            if s > m["bound"]:
                ok = False
            print(f"  {m['name']:<12} median {med:<12.6g} {m['unit']:<4} "
                  f"spread {s:7.2%}  bound {m['bound']:.0%}  {verdict}")
    print(f"\nheld-out seed for later claims: {HELD_OUT_SEED}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
