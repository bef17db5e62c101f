#!/usr/bin/env python3
"""Compare catbench results of a parent commit and a change.

    python3 catbench/compare.py --base .bench_build/catbench/results/result-fv_field-*.json \
                                --change other/result-fv_field-*.json

Every file is a result catbench wrote (result-<workload>-s<seed>-t<trace>-*.json).
Results are only comparable when they were measured the same way, so the
comparison refuses to run when any file's context (host, nproc, compiler,
build type, workload, run length or trace mode) differs from the others.

For each end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles and a verdict: "regression" when the change's median is worse
than the parent's by more than the metric's bound; "unresolved" when the
parent's own spread is wider than the bound; "gain" when the change wins at
least 9 of 10 runs paired in order and the medians differ by more than the
parent's spread; otherwise "no change". Exits 1 on a regression, 2 on a
context mismatch.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONTEXT_KEYS = ("host", "nproc", "compiler", "build_type", "workload",
                "seconds", "trace")


def load(paths):
    return [json.loads(pathlib.Path(p).read_text()) for p in paths]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)

    ref = {k: base[0]["context"][k] for k in CONTEXT_KEYS}
    for path, r in zip(args.base + args.change, base + change):
        diff = [k for k in CONTEXT_KEYS if r["context"][k] != ref[k]]
        if diff:
            print(f"refusing to compare: {path} differs in "
                  + ", ".join(f"{k} ({r['context'][k]!r} vs {ref[k]!r})"
                              for k in diff), file=sys.stderr)
            return 2
        if not r["correct"]:
            print(f"refusing to compare: {path} is not a correct run",
                  file=sys.stderr)
            return 2

    regression = False
    print(f"{ref['workload']}: {len(base)} parent runs, {len(change)} change runs")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["end_to_end"][name]["value"] for r in base]
        c = [r["end_to_end"][name]["value"] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        worse = (cq[1] - bq[1]) / bq[1] * (1 if lower else -1)
        b_spread = (bq[2] - bq[0]) / bq[1]
        pairs = list(zip(b, c))
        wins = sum((y < x) if lower else (y > x) for x, y in pairs)
        if worse > m["bound"]:
            verdict, regression = "regression", True
        elif b_spread > m["bound"] and not all(
                (y < min(b)) if lower else (y > max(b)) for y in c):
            verdict = "unresolved"
        elif pairs and wins >= 0.9 * len(pairs) and -worse > b_spread:
            verdict = "gain"
        else:
            verdict = "no change"
        print(f"  {name:<12} parent {bq[1]:<11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
              f"change {cq[1]:<11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]  "
              f"{-worse:+.1%} better  wins {wins}/{len(pairs)}  {verdict}")
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
