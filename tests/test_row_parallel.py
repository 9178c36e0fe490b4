"""Row-parallel runs: compiled netlists widened to every row of the crossbar.

Each case widens a bundled netlist's actions so that every op writes all n
rows, seeds every row's inputs, flips one input-block cell per block row
and issues the actions on ``Machine(state)``. The digests pin the event
lines, the final cells and both check-bit planes; the outputs are checked
row by row against ``Netlist.evaluate``, and every ``load_check`` and
``writeback`` record against :func:`touched_check_cells`.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_checkmem import oracle_names, touched_check_cells, written_cells

from xbarecc.checkmem import Machine, lane_footprint
from xbarecc.engine import CrossbarState
from xbarecc.geometry import Geometry
from xbarecc.netlist import load_bundled
from xbarecc.scheduler import ActionKind, build_actions, map_to_row, run_actions


def widen(actions: tuple, geom: Geometry) -> tuple:
    """Run a single-row action list on every row: every op's lane mask
    becomes all n rows; the input check and each output-block reset are
    repeated for every block row."""
    lanes = frozenset(range(geom.n))
    rows = range(geom.blocks_per_side)
    wide = []
    for action in actions:
        if action.kind is ActionKind.CHECK_ROW:
            wide.extend(replace(action, index=br) for br in rows)
        elif action.kind is ActionKind.BLOCK_RESET:
            wide.extend(replace(action, block=(br, action.block[1])) for br in rows)
        else:
            wide.append(replace(action, op=replace(action.op, lane_mask=lanes)))
    return tuple(wide)


def run_wide(name: str, geom: Geometry, seed: int):
    """The widened netlist on seeded inputs with one data flip per block row."""
    rng = np.random.default_rng(seed)
    nl = load_bundled(name)
    rp = map_to_row(nl, geom)
    m = geom.m
    state = CrossbarState.zeros(geom)
    cols = list(rp.input_columns.values())
    state.cells[:, cols] = rng.integers(0, 2, size=(geom.n, len(cols)), dtype=np.uint8)
    inputs = state.cells.copy()
    machine = Machine(state)
    in_width = len(rp.input_block_cols) * m
    for br in range(geom.blocks_per_side):
        machine.inject_data_flip(br * m + int(rng.integers(m)), int(rng.integers(in_width)))
    run = run_actions(machine, widen(build_actions(rp), geom))
    return nl, rp, inputs, machine, run


CASES = [pytest.param(name, geom, id=f"{name}-{geom.n}/{geom.m}")
         for geom in (Geometry(45, 3), Geometry(63, 7))
         for name in ("full_adder", "decoder3to8")]

# (netlist, n/m) -> sha256 of (event lines, final cells, both planes)
DIGESTS = {
    ("full_adder", "45/3"): (
        "f236109e5b0c8f764badf3fc082399e986214b9717670ab89fad43e5ff0396cc",
        "94f24677880369b1a84ac955d2714d065817572a22482cf9f7af390574bc287c",
        "d63c47f8939190d3834782440cf74bf254f9ac80c8a3ee0709d782909ad4bd4c"),
    ("decoder3to8", "45/3"): (
        "a1b2e7192de71d73a6f5d8a094913dc66b110f648735d7fe7942c892e0b7f4c9",
        "8dfd6c8c9c3529d8a21471a2b82213751ed2f6f5a7b3a2ce47ddca5819955db7",
        "6bc9cb54c9f1b643c541475a94e41f77e9d0b9796c00c519cb86be1c4f780a72"),
    ("full_adder", "63/7"): (
        "62cfb4e3a6d04a1f0bde0674def1970301a4d74b625bab49c9927b5a7648813c",
        "b492b3348002e759b1d47d6dcee11106c6cff9a7d683e4f4495502c5f01cf273",
        "6463910dc41f66b4cb34795e524ffa2161f4f0617cb06c6f11aafcf0e6d8fc0d"),
    ("decoder3to8", "63/7"): (
        "55dd8042233e24c6072dbe3ef81d29ba6139caeeb5a47da8b23b6f4be7d55e34",
        "e8ab57c38656656d791024045b8595cd2061852a8a125007535fdc5d3b551733",
        "0847bfda0835bba0e836a2d999b5ea6084fc89b36ef076e1101971222900d01d"),
}


@pytest.mark.parametrize("name, geom", CASES)
class TestWidenedNetlists:
    def _run(self, name, geom):
        return run_wide(name, geom, seed=geom.n * 100 + geom.m)

    def test_every_row_computes_the_netlist_and_every_flip_is_corrected(self, name, geom):
        nl, rp, inputs, machine, run = self._run(name, geom)
        assert (run.corrected, run.uncorrectable) == (geom.blocks_per_side, 0)
        for row in range(geom.n):
            want = nl.evaluate({k: int(inputs[row, c]) for k, c in rp.input_columns.items()})
            got = {k: int(machine.state.cells[row, c]) for k, c in rp.output_columns.items()}
            assert got == want
        for bc in rp.output_block_cols:
            assert all(machine.block_consistent(br, bc)
                       for br in range(geom.blocks_per_side))

    def test_check_bit_records_name_exactly_the_touched_bits(self, name, geom):
        _, _, _, machine, _ = self._run(name, geom)
        events = machine.events
        critical = [k for k, ev in enumerate(events)
                    if ev.action == "op" and ev.fields[1:] == (True,)]
        assert critical
        for k in critical:
            op = events[k].fields[0]
            load, writeback = events[k + 1], events[k + 4]
            assert (load.action, writeback.action) == ("load_check", "writeback")
            assert load.fields == writeback.fields == (
                lane_footprint(geom, op.orientation, op.lane_mask), op.output_line)
            cells = "cells=" + oracle_names(touched_check_cells(*written_cells(op), geom), geom)
            assert load.operands == writeback.operands == cells

    def test_events_cells_and_planes_match_pinned_digests(self, name, geom):
        _, _, _, machine, _ = self._run(name, geom)
        events = "\n".join(ev.to_line() for ev in machine.events).encode()
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            events, machine.state.cells.tobytes(), machine.checkmem.planes.tobytes()))
        assert digests == DIGESTS[(name, f"{geom.n}/{geom.m}")]


def test_a_widened_run_logs_fields_not_text():
    # a widened ripple_adder4 at 1020/15 logs 2,749 records; with the text of
    # its all-lane ops, check-bit names and reset Inits built at issue time
    # the run grew the traced heap by 1.32 MB, ~1.00 MB of it that text
    geom = Geometry(1020, 15)
    rp = map_to_row(load_bundled("ripple_adder4"), geom)
    actions = widen(build_actions(rp), geom)
    rng = np.random.default_rng(1020)
    state = CrossbarState.zeros(geom)
    cols = list(rp.input_columns.values())
    state.cells[:, cols] = rng.integers(0, 2, size=(geom.n, len(cols)), dtype=np.uint8)
    run_actions(Machine(state), actions)  # the lane-set and footprint memos, filled
    machine = Machine(state)
    for br in range(geom.blocks_per_side):
        machine.inject_data_flip(br * geom.m + int(rng.integers(geom.m)),
                                 int(rng.integers(geom.m)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = run_actions(machine, actions)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (run.corrected, len(machine.events)) == (geom.blocks_per_side, 2749)
    assert grown <= 0.7e6
