#!/usr/bin/env python3
"""The benchmark's trajectory, chained from committed ``tools/ab.py`` records:

    python3 tools/trajectory.py BENCH_*.json

Each record holds paired runs of a change against its parent on one
workload. Absolute rates do not carry from one host or day to the
next, but the ratio of the two sides' medians, measured in alternating
pairs on one host, does. So each row shows a record's parent and change
medians of the metric its claim was read on (``tools/ab.py``'s
``work_per_ref_s``), their ratio, and the product of that workload's
ratios up to and including the record: the change's speed relative to the
parent of the workload's first record, if each record's parent is the
change of the one before it. The records are taken in the order of the
number in their names (``BENCH_<number>_<workload>.json``), then by name;
the rows are grouped by workload. The last column is the record's claim
verdict.

A record's chain link is checked: a side whose files differed from its
commit, or that names none, cannot be tied to a tree, and a record whose
parent commit is not the change commit of the workload's record before
it leaves the commits between them unmeasured. Each is a warning on
stderr that names the record; the row still counts in the product.

A record without the fields that this reads is an error that names the
file (exit 1). Standard library only; nothing is written.
"""

import argparse
import json
import re
import sys
from pathlib import Path


def order(path: Path) -> tuple:
    """Sort key: the number in ``BENCH_<number>_...``, then the name; a name
    without one sorts after every numbered one."""
    found = re.match(r"BENCH_(\d+)_", path.name)
    return (0, int(found.group(1)), path.name) if found else (1, 0, path.name)


def read_record(path: Path) -> dict:
    """The fields of one record that a row shows and its trees' commits
    (``None`` for a side that differed from its commit or names none);
    exits naming the file if any is missing or malformed."""
    try:
        record = json.loads(path.read_text())
        metric = record["claim"]["metric"]
        row = next((r for r in record["metrics"] if r["name"] == metric), None)
        if row is None:
            sys.exit(f"trajectory: {path}: no metric {metric!r}")
        fields = {"workload": str(record["workload"]), "pairs": len(record["pairs"]),
                  "parent": float(row["parent"][1]), "change": float(row["change"][1]),
                  "claim": "HOLDS" if record["claim"]["holds"] else "no",
                  "commits": {side: None if record["trees"][side]["dirty"]
                              else record["trees"][side]["commit"]
                              for side in ("parent", "change")}}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        sys.exit(f"trajectory: {path}: not a tools/ab.py record ({type(exc).__name__}: {exc})")
    if fields["pairs"] < 1 or fields["parent"] <= 0:
        sys.exit(f"trajectory: {path}: needs at least one pair and a positive parent median")
    return fields


def rows(paths: list[Path]) -> list[dict]:
    """One row per record, grouped by workload in record order, with the
    ratio of its medians, the workload's chained ratio and the warnings on
    its chain link."""
    records = sorted(((path, read_record(path)) for path in paths),
                     key=lambda record: (record[1]["workload"], order(record[0])))
    table, last = [], {}
    for path, fields in records:
        commits = fields["commits"]
        warnings = [f"the {side} tree is not a commit" for side in ("parent", "change")
                    if commits[side] is None]
        before = last.get(fields["workload"])
        if before is not None and commits["parent"] is not None \
                and commits["parent"] != before["commits"]["change"]:
            warnings.append(f"parent {commits['parent'][:12]} is not the change of "
                            f"{before['record']}")
        ratio = fields["change"] / fields["parent"]
        chained = (before["chained"] if before else 1.0) * ratio
        table.append({"record": path.name, **fields, "ratio": ratio, "chained": chained,
                      "warnings": warnings})
        last[fields["workload"]] = table[-1]
    return table


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="+", type=Path, help="tools/ab.py --record files")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    table = rows(args.records)
    width = max(len("record"), *(len(row["record"]) for row in table))
    print(f"{'record':{width}s}  {'workload':10s} {'pairs':>5s} {'parent':>10s} "
          f"{'change':>10s} {'ratio':>7s} {'chained':>8s}  claim")
    for row in table:
        print(f"{row['record']:{width}s}  {row['workload']:10s} {row['pairs']:5d} "
              f"{row['parent']:10.4g} {row['change']:10.4g} {row['ratio']:7.3f} "
              f"{row['chained']:8.3f}  {row['claim']}")
        for warning in row["warnings"]:
            print(f"trajectory: warning: {row['record']}: {warning}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
