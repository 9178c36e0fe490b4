#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload simd [--pairs 10]
        [--seconds 25] [--first-seed 1] [--layers]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed (``--first-seed``, then one more per pair). The side that runs
first alternates from pair to pair, so a drift of the host's speed favours
neither. For every end-to-end metric of ``BENCHMARK.json`` it prints the
median and quartiles of each side, the number of pairs the change won and
the number in which both sides read the same (the simulated ``sim_*``
metrics of a pure speed-up are the same in every pair). It also prints the
change of the median relative to the parent's and checks it against the
metric's ``bound``: ``ok`` when it is no worse than the bound, ``WORSE``
when it is, and ``unresolved`` when the parent's own interquartile range,
relative to its median, is wider than the bound, so no verdict can be read.
On ``work_per_ref_s`` it also prints the verdict of the claim rule: the
change wins at least 9 of every 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.

With ``--layers``, after the pairs it runs ``perfbench/run.py --trace 1``
once in each checkout on the first seed and prints every per-layer metric
of ``BENCHMARK.json`` whose value differs, parent -> change, so the report
names the layers that moved.

Standard library only. Nothing is written besides what ``perfbench/run.py``
itself writes in each checkout.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark process; returns its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


CLAIMED = "work_per_ref_s"  # the metric the claim rule is applied to


def claim_verdict(parent: list[float], change: list[float],
                  higher_is_better: bool) -> tuple[int, bool, str]:
    """Pairs won by the change, and whether the claim rule holds."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med_parent, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - med_parent)
    needed = math.ceil(0.9 * len(parent))
    holds = wins >= needed and gap > q3 - q1
    why = (f"{wins}/{len(parent)} pairs won (need {needed}), median gap {gap:.6g} "
           f"vs parent IQR {q3 - q1:.6g}")
    return wins, holds, why


def bound_verdict(parent: list[float], change: list[float], higher_is_better: bool,
                  bound: float) -> tuple[float, str]:
    """Relative change of the median, and ``ok``, ``WORSE`` or ``unresolved``."""
    q1, med_parent, q3 = quartiles(parent)
    med_change = statistics.median(change)
    if med_parent == 0:
        rel = 0.0 if med_change == 0 else math.copysign(math.inf, med_change)
        spread = 0.0 if q3 == q1 else math.inf
    else:
        rel = (med_change - med_parent) / abs(med_parent)
        spread = (q3 - q1) / abs(med_parent)
    if spread > bound:
        return rel, "unresolved"
    worse = -rel if higher_is_better else rel
    return rel, "WORSE" if worse > bound else "ok"


def layer_lines(names: list[str], parent: dict, change: dict) -> list[str]:
    """``name parent -> change (relative change)`` for each per-layer metric
    whose value differs between two ``--trace 1`` results, in ``names``
    order; a value one side lacks reads ``-``."""
    fmt = lambda v: "-" if v is None else f"{v:.6g}"
    lines = []
    for name in names:
        p, c = (side.get(name, {}).get("value") for side in (parent, change))
        if p == c:
            continue
        rel = f" ({(c - p) / abs(p):+.1%})" if p and c is not None else ""
        lines.append(f"{name:40s} {fmt(p)} -> {fmt(c)}{rel}")
    return lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--layers", action="store_true",
                   help="after the pairs, one --trace 1 run per side; print the "
                        "per-layer metrics that differ")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        sys.exit("ab: --pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, seed, args.seconds))
        line = "  ".join(
            f"{side}={results[side][-1]['metrics'][CLAIMED]['value']:.6g}"
            for side in sides)
        print(f"pair {i + 1}/{args.pairs} seed {seed} first={order[0]}: {line}", flush=True)

    failed = {side: sum(r["failed"] for r in results[side]) for side in sides}
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs; "
          f"failed operations: parent {failed['parent']}, change {failed['change']}")
    print(f"{'metric':28s} {'parent q1/median/q3':36s} {'change q1/median/q3':36s} "
          f"wins  same   median  bound")
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in sides}
        wins, _, _ = claim_verdict(values["parent"], values["change"],
                                   direction == "higher")
        same = sum(p == c for p, c in zip(values["parent"], values["change"]))
        rel, verdict = bound_verdict(values["parent"], values["change"],
                                     direction == "higher", bounds[name])
        cols = ["/".join(f"{q:.6g}" for q in quartiles(values[side])) for side in sides]
        print(f"{name:28s} {cols[0]:36s} {cols[1]:36s} {wins:>4}  {same:>4}  "
              f"{rel:+7.1%}  {verdict} (bound {bounds[name]:.0%})")
    values = {side: [r["metrics"][CLAIMED]["value"] for r in results[side]]
              for side in sides}
    _, holds, why = claim_verdict(values["parent"], values["change"],
                                  better[CLAIMED] == "higher")
    print(f"\nclaim on {CLAIMED}: {'HOLDS' if holds else 'DOES NOT HOLD'} ({why})")
    if args.layers:
        traced = {side: run_once(sides[side], args.workload, args.first_seed,
                                 args.seconds, trace=1)["metrics"] for side in sides}
        lines = layer_lines([m["name"] for m in spec["per_layer"]],
                            traced["parent"], traced["change"])
        print(f"\nper-layer metrics that differ (--trace 1, seed {args.first_seed}), "
              "parent -> change:")
        print("\n".join(lines) if lines else "(none)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
