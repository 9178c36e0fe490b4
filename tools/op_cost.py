#!/usr/bin/env python3
"""Per-op cost of the machine's operations and of the schedule's records,
run from the root of a checkout:

    python3 tools/op_cost.py [--n 1020] [--m 15] [--ops 300] [--repeat 5]

Each case runs ``--ops`` operations in a loop, ``--repeat`` times, and
prints the best time per operation in microseconds. A machine case starts
each repetition on a fresh machine, built outside the timed region:

- ``critical_op 1 lane`` and ``critical_op all lanes``: a NOR on row 0, or
  on every row, whose output line moves one column per op, so the ops
  cover every line offset within a block;
- ``noncritical_op 1 lane``: the same one-lane NORs, without ECC;
- ``block_ecc_reset``: one block after another, row by row;
- ``MicroOp``, ``Action`` and ``Event``: building one record each;
- ``compute_syndrome``: one clean m x m block;
- ``check_block_row``: a clean line of a random consistent machine, one
  line after another, reported per block checked.

The package is imported from ``src/`` of the same checkout; nothing is
written. A geometry the package rejects (``--m`` even, or not dividing
``--n``) is a usage error. Standard library and numpy only.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=1020, help="crossbar side")
    p.add_argument("--m", type=int, default=15, help="block side")
    p.add_argument("--ops", type=int, default=300, help="operations per repetition")
    p.add_argument("--repeat", type=int, default=5, help="repetitions; the best is kept")
    args = p.parse_args(argv)
    if args.ops < 1 or args.repeat < 1:
        p.error("--ops and --repeat must be at least 1")
    import_package()
    from xbarecc.geometry import Geometry, GeometryError
    try:
        Geometry(args.n, args.m)
    except GeometryError as exc:
        p.error(str(exc))
    return args


def import_package() -> None:
    """Make ``src/`` of this checkout the package's import path."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def best_per_op(setup, run, ops: int, repeat: int, per_op: int) -> float:
    """Least seconds per unit of ``run(setup(), ops)`` over ``repeat`` runs,
    each op being ``per_op`` units; ``setup`` is not timed."""
    best = float("inf")
    for _ in range(repeat):
        subject = setup()
        start = time.perf_counter()
        run(subject, ops)
        best = min(best, time.perf_counter() - start)
    return best / (ops * per_op)


def cases(n: int, m: int):
    """(name, setup, run, units per op) of every timed case."""
    import_package()
    import numpy as np

    from xbarecc.checkmem import Event, Machine
    from xbarecc.engine import CrossbarState, Orientation, nor_op
    from xbarecc.geometry import Geometry
    from xbarecc.parity import compute_syndrome, encode_block
    from xbarecc.scheduler import Action, ActionKind

    geom = Geometry(n, m)
    nb = geom.blocks_per_side
    one, every = frozenset({0}), frozenset(range(n))
    # NOR of the two zero columns 0 and 1 into a preset column: it writes 1
    # again, so every op of the loop is valid on the state it leaves
    outputs = range(2, n)

    def preset_machine():
        state = CrossbarState.zeros(geom)
        state.cells[:, 2:] = 1
        return Machine(state)

    def nors(lanes, critical):
        ops = [nor_op(Orientation.ROW, (0, 1), out, lanes) for out in outputs]

        def run(machine, count):
            issue = machine.critical_op if critical else machine.noncritical_op
            for k in range(count):
                issue(ops[k % len(ops)])
        return run

    def resets(machine, count):
        for k in range(count):
            machine.block_ecc_reset(k // nb % nb, k % nb)

    def micro_ops(_, count):
        for k in range(count):
            nor_op(Orientation.ROW, (0, 1), 2 + k % (n - 2), one)

    op = nor_op(Orientation.ROW, (0, 1), 2, one)

    def actions(_, count):
        for k in range(count):
            Action(ActionKind.OP, op, True)  # as build_actions makes one per op

    def events(_, count):
        for k in range(count):
            Event(k, "MEM", "op", "critical=0", 1)

    def random_machine():
        rng = np.random.default_rng(n * m)
        return Machine(CrossbarState(geom, rng.integers(0, 2, (n, n), dtype=np.uint8)))

    block = np.random.default_rng(m).integers(0, 2, (m, m), dtype=np.uint8)
    stored = encode_block(block)

    def syndromes(_, count):
        for k in range(count):
            compute_syndrome(block, stored)

    def line_checks(machine, count):
        for k in range(count):
            machine.check_block_row(k % nb)

    return (
        ("critical_op 1 lane", preset_machine, nors(one, True), 1),
        ("critical_op all lanes", preset_machine, nors(every, True), 1),
        ("noncritical_op 1 lane", preset_machine, nors(one, False), 1),
        ("block_ecc_reset", lambda: Machine.blank(geom), resets, 1),
        ("MicroOp", lambda: None, micro_ops, 1),
        ("Action", lambda: None, actions, 1),
        ("Event", lambda: None, events, 1),
        ("compute_syndrome", lambda: None, syndromes, 1),
        ("check_block_row", random_machine, line_checks, nb),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = [(name, best_per_op(setup, run, args.ops, args.repeat, per_op))
            for name, setup, run, per_op in cases(args.n, args.m)]
    print(f"op_cost: n={args.n} m={args.m}, best of {args.repeat} x {args.ops} ops, "
          f"microseconds per op (per block for check_block_row)")
    for name, seconds in rows:
        print(f"{name:<24}{seconds * 1e6:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
