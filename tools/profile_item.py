#!/usr/bin/env python3
"""cProfile of benchmark items, run from the root of a checkout:

    python3 tools/profile_item.py --workload simd [--seed 1] [--items 3]
        [--sort tottime]

It builds the workload of ``perfbench/workloads.py`` from the seed, in a
temporary directory, imports the package from ``src/`` of the same
checkout, runs one warm-up item unprofiled, then profiles ``--items``
items and prints the 40 costliest functions by ``--sort``.
cProfile adds a fixed cost to every Python call, so it finds where the
time goes; ``perfbench/run.py`` is what measures a change.

Standard library only; the benchmark's files are imported, never changed.
"""

import argparse
import cProfile
import io
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SORTS = ("tottime", "cumulative", "calls")
LINES = 40  # functions printed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("compile", "campaign", "simd"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--items", type=int, default=3)
    p.add_argument("--sort", choices=SORTS, default="tottime")
    args = p.parse_args(argv)
    if args.items < 1:
        p.error("--items must be at least 1")
    return args


def profile_items(workload: str, seed: int, items: int) -> cProfile.Profile:
    """One warm-up item, then ``items`` items under one profiler."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory(prefix="profile-item-") as tmp:
        wl = workloads.WORKLOADS[workload](seed, Path(tmp))
        wl.item()
        for _ in range(items):
            profile.enable()
            out = wl.item()
            profile.disable()
            problems = wl.check_item(out)
            if problems:
                raise SystemExit(f"profile_item: {workload} item failed: {problems[0]}")
    return profile


def main(argv=None) -> int:
    args = parse_args(argv)
    profile = profile_items(args.workload, args.seed, args.items)
    text = io.StringIO()
    stats = pstats.Stats(profile, stream=text)
    stats.strip_dirs().sort_stats(args.sort).print_stats(LINES)
    print(f"{args.workload}: {args.items} item(s), seed {args.seed}, sorted by {args.sort}")
    print(text.getvalue().strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
