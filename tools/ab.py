#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload simd [--pairs 10]
        [--seconds 25] [--first-seed 1] [--layers N]

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

With ``--layers N``, after the pairs it runs ``perfbench/run.py --trace 1``
N times in each checkout on the first seed, alternating as the pairs do,
and prints every per-layer metric of ``BENCHMARK.json``: each side's median
and interquartile range, the change of the median, and beside a layer's
time its calls per item. A host that drifts moves every layer alike, so a
layer reads ``moved`` only if the change of its median exceeds both sides'
interquartile ranges and, for a time, its ratio to ``REFERENCE``, a time
no change to the program touches, measured in the same run, moves the same
way by more than both sides' ranges of that ratio; counts and bytes do not
drift with the host and need no ratio. Equal medians read ``same``, and any
other change ``unresolved``. ``REFERENCE`` is the median of the
reference-kernel times that ``perfbench/run.py`` takes around every item
and prints on its ``# detail`` line; its own line comes first and shows
each side's interquartile range relative to its median.

With ``--record PATH`` it also writes everything it printed as one JSON
file (:func:`build_record`): each tree's commit and whether its files
differ from it, the host (Python, numpy, CPUs), the seeds, every pair's
metrics, each end-to-end metric's quartiles and verdict, the
claim verdict and, with ``--layers``, each layer's verdict. A perf change
commits its record as ``BENCH_<change>_<workload>.json``;
``tools/trajectory.py`` chains the records into one table.

Standard library only. Nothing is written besides the record and what
``perfbench/run.py`` itself writes in each checkout.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def alternate(i: int) -> tuple[str, str]:
    """The order in which the two sides run in round i: the parent first in
    even rounds, so that a drift of the host's speed favours neither."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark process; returns its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return read_result(done.stdout)


DETAIL = "# detail "


def read_result(stdout: str) -> dict:
    """The JSON result line of one run's output, with the median of the
    reference-kernel times of its ``# detail`` line as metric :data:`REFERENCE`."""
    lines = stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith(DETAIL))[len(DETAIL):])
    result = json.loads(lines[-1])
    result["metrics"][REFERENCE] = {"value": statistics.median(detail[REFERENCE]),
                                    "unit": "s"}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


CLAIMED = "work_per_ref_s"  # the metric the claim rule is applied to
REFERENCE = "reference_kernel_s"  # the time no change touches, that layer times are read against


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




def shift(parent: list[float], change: list[float]) -> int:
    """+1 or -1 when the change's median is above or below the parent's by
    more than each side's interquartile range, else 0."""
    (p1, med_parent, p3), (c1, med_change, c3) = quartiles(parent), quartiles(change)
    gap = med_change - med_parent
    return (gap > 0) - (gap < 0) if abs(gap) > max(p3 - p1, c3 - c1) else 0


def layer_verdict(parent: list[float], change: list[float],
                  ratios: tuple[list[float], list[float]] | None = None) -> str:
    """``same`` when both medians are equal; ``moved`` when the change's
    median lies beyond each side's interquartile range and, if each side's
    ``ratios`` to the reference are given (for a time), their median moves
    the same way beyond each side's range of them; else ``unresolved``."""
    if statistics.median(parent) == statistics.median(change):
        return "same"
    moved = shift(parent, change)
    if ratios is not None and not (all(ratios) and shift(*ratios) == moved):
        moved = 0
    return "moved" if moved else "unresolved"


def layer_rows(per_layer: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric of ``per_layer`` (``BENCHMARK.json`` entries),
    read off each side's ``--trace 1`` metrics: ``name``, each side's
    quartiles (``None`` for a side with no value), the relative change of
    the median (``None`` unless both sides have a nonzero parent median),
    the verdict and, beside a time, each side's median calls per item of
    the same layer. A time's verdict also reads its ratio to
    :data:`REFERENCE` in each run. The reference's own row comes first,
    with the verdict ``reference``."""
    def values(runs, name):
        return [run[name]["value"] for run in runs if name in run]

    def ratios(runs, name):
        return [run[name]["value"] / run[REFERENCE]["value"] for run in runs
                if name in run and run.get(REFERENCE, {}).get("value")]

    rows = []
    for spec in [{"name": REFERENCE, "unit": "s"}, *per_layer]:
        name = spec["name"]
        sides = values(parent, name), values(change, name)
        parent_q, change_q = (list(quartiles(v)) if v else None for v in sides)
        row = {"name": name, "parent": parent_q, "change": change_q, "rel": None,
               "verdict": "unresolved", "calls": None}
        rows.append(row)
        if not all(sides):
            continue
        med_parent, med_change = map(statistics.median, sides)
        if med_parent:
            row["rel"] = (med_change - med_parent) / abs(med_parent)
        timed = spec["unit"] == "s"
        counted = [values(runs, name.removesuffix(".self_s") + ".calls")
                   for runs in (parent, change)]
        if name == REFERENCE:
            row["verdict"] = "reference"
        else:
            row["verdict"] = layer_verdict(
                *sides, (ratios(parent, name), ratios(change, name)) if timed else None)
            if timed and all(counted):
                row["calls"] = [statistics.median(c) for c in counted]
    return rows


def layer_lines(per_layer: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """:func:`layer_rows` as text, one line each: ``name``, each side's
    ``median (IQR)``, the relative change of the median, the verdict and,
    beside a time, ``calls`` per item; the reference's line shows each
    side's interquartile range relative to its median instead. A side with
    no value reads ``-``."""
    def summary(q):
        return f"{q[1]:.4g} ({q[2] - q[0]:.2g})" if q else "-"

    lines = []
    for row in layer_rows(per_layer, parent, change):
        rel = "" if row["rel"] is None else f"{row['rel']:+.1%}"
        note = ""
        if row["verdict"] == "reference":
            note = "IQR {:.1%} -> {:.1%} of median".format(
                *((q3 - q1) / q2 for q1, q2, q3 in (row["parent"], row["change"])))
        elif row["calls"]:
            note = "calls {:.4g} -> {:.4g}".format(*row["calls"])
        lines.append(f"{row['name']:40s} {summary(row['parent']):>20s} -> "
                     f"{summary(row['change']):20s} {rel:>7s}  {row['verdict']:10s} "
                     f"{note}".rstrip())
    return lines


def metric_rows(spec: dict, results: dict[str, list[dict]]) -> list[dict]:
    """One row per end-to-end metric of ``spec`` (``BENCHMARK.json``), read
    off each side's untraced results, pair by pair: each side's quartiles,
    the pairs the change won and those that read the same, the relative
    change of the median and the bound verdict."""
    rows = []
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                          for side in ("parent", "change"))
        wins, _, _ = claim_verdict(parent, change, higher)
        rel, verdict = bound_verdict(parent, change, higher, metric["bound"])
        rows.append({"name": name, "better": metric["better"], "bound": metric["bound"],
                     "parent": list(quartiles(parent)), "change": list(quartiles(change)),
                     "wins": wins, "same": sum(p == c for p, c in zip(parent, change)),
                     "rel": rel, "verdict": verdict})
    return rows


def claim_row(spec: dict, results: dict[str, list[dict]]) -> dict:
    """The claim rule on :data:`CLAIMED`: pairs won, pairs needed, whether it
    holds and why."""
    higher = {m["name"]: m["better"] for m in spec["end_to_end"]}[CLAIMED] == "higher"
    parent, change = ([r["metrics"][CLAIMED]["value"] for r in results[side]]
                      for side in ("parent", "change"))
    wins, holds, why = claim_verdict(parent, change, higher)
    return {"metric": CLAIMED, "wins": wins, "needed": math.ceil(0.9 * len(parent)),
            "holds": holds, "why": why}


def tree(checkout: Path) -> dict:
    """A checkout's commit (``None`` outside git) and whether its tracked
    or untracked files differ from that commit."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    return {"commit": commit, "dirty": bool(git("status", "--porcelain")) if commit else None}


def host() -> dict:
    """The Python, numpy and CPUs that both sides run on."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "cpus": os.cpu_count(), "machine": platform.machine()}


def build_record(args, spec: dict, trees: dict, host_facts: dict,
                 results: dict[str, list[dict]], traced: dict[str, list[dict]] | None) -> dict:
    """The JSON record of one ``ab`` run: what it ran (``workload``,
    ``seconds``, ``seeds``), the two ``trees`` and the ``host``, every
    pair's seed, order, ``failed`` counts and metric values, each
    end-to-end metric's row (:func:`metric_rows`), the ``claim`` and, if
    ``traced`` runs were made, their ``layers`` (:func:`layer_rows`)."""
    seeds = [args.first_seed + i for i in range(args.pairs)]
    pairs = [{"seed": seed, "first": alternate(i)[0],
              **{side: {"failed": results[side][i]["failed"],
                        "metrics": {name: m["value"]
                                    for name, m in results[side][i]["metrics"].items()}}
                 for side in ("parent", "change")}}
             for i, seed in enumerate(seeds)]
    record = {"workload": args.workload, "seconds": args.seconds, "seeds": seeds,
              "trees": trees, "host": host_facts, "pairs": pairs,
              "metrics": metric_rows(spec, results), "claim": claim_row(spec, results)}
    if traced is not None:
        record["layers"] = {"runs": len(traced["parent"]), "seed": args.first_seed,
                            "rows": layer_rows(spec["per_layer"], traced["parent"],
                                               traced["change"])}
    return record


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--layers", type=int, default=0, metavar="N",
                   help="after the pairs, N alternating --trace 1 runs per side "
                        "(at least 3); print every per-layer metric and whether it moved")
    p.add_argument("--record", type=Path, metavar="PATH",
                   help="also write the trees, host, seeds, every pair's metrics and "
                        "every verdict to this JSON file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        sys.exit("ab: --pairs must be at least 1")
    if args.layers and args.layers < 3:
        sys.exit("ab: --layers needs at least 3 runs per side for a spread")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = alternate(i)
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
    for row in metric_rows(spec, results):
        cols = ["/".join(f"{q:.6g}" for q in row[side]) for side in sides]
        print(f"{row['name']:28s} {cols[0]:36s} {cols[1]:36s} {row['wins']:>4}  "
              f"{row['same']:>4}  {row['rel']:+7.1%}  {row['verdict']} "
              f"(bound {row['bound']:.0%})")
    claim = claim_row(spec, results)
    print(f"\nclaim on {CLAIMED}: {'HOLDS' if claim['holds'] else 'DOES NOT HOLD'} "
          f"({claim['why']})")
    traced = None
    if args.layers:
        traced = {side: [] for side in sides}
        for i in range(args.layers):
            order = alternate(i)
            for side in order:
                traced[side].append(run_once(sides[side], args.workload, args.first_seed,
                                             args.seconds, trace=1)["metrics"])
        print(f"\nper-layer metrics, {args.layers} runs per side (--trace 1, seed "
              f"{args.first_seed}), median (IQR), parent -> change:")
        print("\n".join(layer_lines(spec["per_layer"], traced["parent"], traced["change"])))
    if args.record:
        record = build_record(args, spec, {side: tree(path) for side, path in sides.items()},
                              host(), results, traced)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nrecord written to {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
