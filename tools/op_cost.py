#!/usr/bin/env python3
"""Per-op cost of the machine's operations and of the schedule's records,
run from the root of a checkout:

    python3 tools/op_cost.py [--n 1020] [--m 15] [--ops 300] [--repeat 5]

Each case runs ``--ops`` operations in a loop, ``--repeat`` times, and
prints the best time per operation (per block for a check, per trial for
a campaign) in microseconds. A machine case starts each repetition on a fresh machine,
built outside the timed region:

- ``critical_op 1 lane`` and ``critical_op all lanes``: a NOR on row 0, or
  on every row, of the preset machine (columns 0 and 1 zero, every other
  cell one), whose output line moves one column per op, so the ops cover
  every line offset within a block;
- ``noncritical_op 1 lane``: the same one-lane NORs, without ECC;
- ``block_ecc_reset``: one block after another, row by row;
- ``MicroOp``, ``Action`` and ``Event``: building one record each;
- ``compute_syndrome``: the fresh and stored check-bits of one clean
  m x m block, two equal ``BlockParity`` records;
- ``check_block_row`` and ``check_block_row blank``: clean lines, one
  after another, of the random machine (random cells, check-bits encoded
  from them) or of the blank one (every cell and check-bit zero, so every
  block of a line holds one check-bit pattern); reported per block checked;
- ``check run``: the ``simd`` workload's input checks, all n/m ROW line
  checks issued as one run through ``run_actions``, once per n/m ops (at
  least once), of a machine whose columns 0 to 2 are random inputs (every
  other cell zero, check-bits encoded) and that takes one data flip per
  block row in those columns before each run (timed; the run corrects
  them); reported per block checked;
- ``full_memory_check`` and ``full_memory_check blank``: the random or the
  blank machine checked whole, row-wise, once per n/m ops (at least
  once), so that it checks about as many lines as ``check_block_row``;
  reported per block checked;
- ``full_memory_check after 1-lane ops``: the same sweeps, of the preset
  machine on which 2m one-lane critical ops ran first, untimed, so that
  every check-bit crossbar holds windows of its own, as in a compiled
  schedule; reported per block checked;
- ``full_memory_check dirty``: the ``campaign`` workload's regime, as many
  whole row-wise checks, each of a fresh blank machine with each cell
  flipped with probability 1e-4 (seeded, the same flips every check), so
  that the dirty blocks are decoded, reported and corrected; the blank
  machine and its flips are timed with the check, as a campaign trial
  builds them;
- ``full_memory_check every block dirty``: as many whole row-wise checks of
  the all-ones machine, a blank machine with every cell set to 1 and its
  check-bits left zero, built untimed: every diagonal of a block holds an
  odd number of ones at any odd m, so every block is uncorrectable and
  stays so, since a check corrects none of them; reported per block
  checked;
- ``injection_campaign trial``: one whole ``inject --scope machine`` trial
  at p = 1e-4, once per n/m ops (at least once), reported per trial: a
  blank machine, its flips drawn and counted per block, one row-wise
  check and the classification of every flip;
- ``injection_campaign trial every cell flipped``: the same trials at
  p = 1, the dense regime: every block takes m * m flips and every block
  is reported uncorrectable.

The package is imported from ``src/`` of the same checkout; nothing is
written. A geometry the package rejects (``--m`` even, or not dividing
``--n``) is a usage error. Standard library and numpy only.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
P_FLIP = 1e-4  # per-cell flip probability of the dirty check: the campaign's --pbit
INPUT_COLUMNS = 3  # random input columns of the check run, as a widened mux2's


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


def best_per_op(setup, run, ops: int, repeat: int) -> float:
    """Least seconds per unit of ``run(setup(), ops)`` over ``repeat`` runs,
    ``run`` returning the units it did; ``setup`` is not timed."""
    best = float("inf")
    for _ in range(repeat):
        subject = setup()
        start = time.perf_counter()
        units = run(subject, ops)
        best = min(best, (time.perf_counter() - start) / units)
    return best


def cases(n: int, m: int):
    """(name, setup, run) of every timed case; ``run(subject, ops)`` returns
    the units it did: ops, or blocks checked."""
    import_package()
    import numpy as np

    from xbarecc.checkmem import Event, Machine
    from xbarecc.engine import CrossbarState, Orientation, nor_op
    from xbarecc.geometry import Geometry
    from xbarecc.parity import compute_syndrome, encode_block
    from xbarecc.reliability import FaultCampaign, injection_campaign
    from xbarecc.scheduler import Action, ActionKind, run_actions

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
            return count
        return run

    def machine_after_one_lane_ops():
        machine = preset_machine()
        nors(one, True)(machine, 2 * m)  # every line offset, twice
        return machine

    def resets(machine, count):
        for k in range(count):
            machine.block_ecc_reset(k // nb % nb, k % nb)
        return count

    def micro_ops(_, count):
        for k in range(count):
            nor_op(Orientation.ROW, (0, 1), 2 + k % (n - 2), one)
        return count

    op = nor_op(Orientation.ROW, (0, 1), 2, one)

    def actions(_, count):
        for k in range(count):
            Action(ActionKind.OP, op, True)  # as build_actions makes one per op
        return count

    def events(_, count):
        for k in range(count):
            Event(k, "MEM", "op", "critical=0", 1)
        return count

    def random_machine():
        rng = np.random.default_rng(n * m)
        return Machine(CrossbarState(geom, rng.integers(0, 2, (n, n), dtype=np.uint8)))

    block = np.random.default_rng(m).integers(0, 2, (m, m), dtype=np.uint8)
    fresh, stored = encode_block(block), encode_block(block)

    def syndromes(_, count):
        for k in range(count):
            compute_syndrome(fresh, stored)
        return count

    def line_checks(machine, count):
        for k in range(count):
            machine.check_block_row(k % nb)
        return count * nb

    def input_machine():
        state = CrossbarState.zeros(geom)
        state.cells[:, :INPUT_COLUMNS] = np.random.default_rng(n * m).integers(
            0, 2, (n, INPUT_COLUMNS), dtype=np.uint8)
        return Machine(state)

    rng = np.random.default_rng(m)
    flip_rows = np.arange(nb) * m + rng.integers(m, size=nb)
    flip_cols = rng.integers(INPUT_COLUMNS, size=nb)
    input_checks = tuple(Action(ActionKind.CHECK_ROW, index=k) for k in range(nb))

    def check_runs(machine, count):
        runs = max(1, count // nb)
        for _ in range(runs):
            machine.state.cells[flip_rows, flip_cols] ^= 1
            run_actions(machine, input_checks)
        return runs * nb * nb

    def memory_checks(machine, count):
        checks = max(1, count // nb)
        for _ in range(checks):
            machine.full_memory_check()
        return checks * nb * nb

    rng = np.random.default_rng(n * m)
    flips = rng.choice(n * n, rng.binomial(n * n, P_FLIP), replace=False)

    def dirty_memory_checks(_, count):
        checks = max(1, count // nb)
        for _ in range(checks):
            machine = Machine.blank(geom)
            machine.state.cells.reshape(-1)[flips] = 1
            machine.full_memory_check()
        return checks * nb * nb

    def all_ones_machine():
        machine = Machine.blank(geom)
        machine.state.cells[:] = 1
        return machine

    def trials(p):
        def run(_, count):
            count = max(1, count // nb)
            injection_campaign(lambda: Machine.blank(geom), FaultCampaign(n * m, count, p))
            return count
        return run

    return (
        ("critical_op 1 lane", preset_machine, nors(one, True)),
        ("critical_op all lanes", preset_machine, nors(every, True)),
        ("noncritical_op 1 lane", preset_machine, nors(one, False)),
        ("block_ecc_reset", lambda: Machine.blank(geom), resets),
        ("MicroOp", lambda: None, micro_ops),
        ("Action", lambda: None, actions),
        ("Event", lambda: None, events),
        ("compute_syndrome", lambda: None, syndromes),
        ("check_block_row", random_machine, line_checks),
        ("check_block_row blank", lambda: Machine.blank(geom), line_checks),
        ("check run", input_machine, check_runs),
        ("full_memory_check", random_machine, memory_checks),
        ("full_memory_check blank", lambda: Machine.blank(geom), memory_checks),
        ("full_memory_check after 1-lane ops", machine_after_one_lane_ops, memory_checks),
        ("full_memory_check dirty", lambda: None, dirty_memory_checks),
        ("full_memory_check every block dirty", all_ones_machine, memory_checks),
        ("injection_campaign trial", lambda: None, trials(P_FLIP)),
        ("injection_campaign trial every cell flipped", lambda: None, trials(1.0)),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = [(name, best_per_op(setup, run, args.ops, args.repeat))
            for name, setup, run in cases(args.n, args.m)]
    print(f"op_cost: n={args.n} m={args.m}, best of {args.repeat} x {args.ops} ops, "
          f"microseconds per op (per block for the checks, per trial for the campaign)")
    for name, seconds in rows:
        print(f"{name:<44}{seconds * 1e6:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
