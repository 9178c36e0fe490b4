"""Check Memory model: check-bit layout, pipelines, block checks, device counts."""

import copy
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_timing_pins import TIMINGS

from xbarecc import checkmem
from xbarecc.checkmem import (
    BlockReport,
    CheckMem,
    Event,
    Machine,
    TimingModel,
    UnitTimeline,
    check_chain_cycles,
    device_counts,
    lane_footprint,
    run_stats,
    xor3_tree_levels,
)
from xbarecc.engine import (
    CrossbarState,
    MicroOp,
    Orientation,
    UninitializedOutputError,
    apply_op_inplace,
    execute,
    format_op,
    init_op,
    nor_op,
)
from xbarecc.geometry import Bank, Geometry, GeometryError
from xbarecc.parity import (
    CLEAN,
    UNCORRECTABLE,
    BlockParity,
    Diagnosis,
    DiagnosisKind,
    DiagonalConflictError,
    apply_correction,
    compute_syndrome,
    decode_syndrome,
    diag_parity,
    encode_block,
    update_parity,
    zero_syndrome,
)
from xbarecc.scheduler import Action, ActionKind, run_actions

G9 = Geometry(9, 3)


def machine9(**kw) -> Machine:
    return Machine.blank(G9, **kw)


def random_consistent_machine(seed, geom=G9, **kw) -> Machine:
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 2, size=(geom.n, geom.n), dtype=np.uint8)
    return Machine(CrossbarState(geom, cells), **kw)


def consistent(machine) -> bool:
    """True iff the stored check-bits equal a re-encode of every block."""
    return machine.checkmem == CheckMem.from_state(machine.state)


def written_cells(op: MicroOp) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the cells an op writes, in ascending lane order."""
    lanes = np.array(op.lane_set.lanes, dtype=np.intp)
    line = np.full_like(lanes, op.output_line)
    return (lanes, line) if op.orientation is Orientation.ROW else (line, lanes)


def touched_check_cells(rows: np.ndarray, cols: np.ndarray,
                        geom: Geometry) -> np.ndarray:
    """Flat indices into :attr:`CheckMem.planes` of the check-bits that
    writing the cells (rows, cols) touches, worked out cell by cell: the
    oracle of :class:`checkmem.LaneFootprint`.

    The leading half comes first, entry k of each half belonging to the
    k-th written cell. Raises :class:`DiagonalConflictError` if the cells
    touch a check-bit twice, which the cells of one op never do.
    """
    n, m, nb = geom.n, geom.m, geom.blocks_per_side
    if rows.size and not (min(rows.min(), cols.min()) >= 0
                          and max(rows.max(), cols.max()) < n):
        raise GeometryError(f"op writes cells outside the {n}x{n} crossbar")
    i, j = rows % m, cols % m
    block = cols // m * nb + rows // m
    touched = np.concatenate([(i + j) % m * nb * nb + block,
                              ((i - j) % m + m) * nb * nb + block])
    keys = np.sort(touched)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        key = tuple(int(k) for k in np.unravel_index(repeated[0], (2, m, nb, nb)))
        raise DiagonalConflictError(f"op touches check-bit {key} twice")
    return touched


def set_parity(cm, block_row, block_col, parity) -> None:
    cm.planes[:, :, block_col, block_row] = (parity.leading, parity.counter)


def crossbar_busy(timeline, unit) -> list[int]:
    """A check-bit crossbar's busy windows, a flat ``[start, end, ...]`` list
    with touching windows merged: those of the shared unit ``"CBX"``, which
    every crossbar takes, and those of its own list, which must not overlap
    them."""
    lists = (timeline._windows.get("CBX", []), timeline._windows.get(unit, []))
    merged = []
    for start, end in sorted(itertools.chain(*(zip(w[::2], w[1::2]) for w in lists))):
        assert not merged or start >= merged[-1], f"{unit} double-booked at cycle {start}"
        if merged and merged[-1] == start:
            merged[-1] = end
        else:
            merged += (start, end)
    return merged


def busy_windows(machine) -> dict[str, list[int]]:
    """The busy windows of every unit that has any, by name, a check-bit
    crossbar's by :func:`crossbar_busy`; no entry for ``"CBX"`` itself."""
    busy = {unit: windows for unit, windows in machine.timeline._windows.items()
            if not unit.startswith("CBX")}
    busy.update((unit, crossbar_busy(machine.timeline, unit)) for unit in machine._cbx_units)
    return {unit: windows for unit, windows in busy.items() if windows}


def ready_cycles(machine) -> dict[int, int]:
    """The check-bit readiness that is set, by flat index into the planes."""
    flat = machine._check_ready.reshape(-1)
    keys = np.flatnonzero(flat)
    return dict(zip(keys.tolist(), flat[keys].tolist()))


class TestCheckMemLayout:
    def test_plane_cell_matches_block_parity(self):
        machine = random_consistent_machine(5)
        cm = machine.checkmem
        for br in range(3):
            for bc in range(3):
                parity = encode_block(machine.state.blocks[br, bc])
                for d in range(3):
                    # crossbar d, cell (a, b) = (block_col, block_row)
                    assert cm.planes[0, d, bc, br] == parity.leading[d]
                    assert cm.planes[1, d, bc, br] == parity.counter[d]


class TestBlankMachine:
    @pytest.mark.parametrize("n, m", [(30, 3), (1020, 15)])
    def test_check_bits_are_the_encoding_of_zero_memory(self, n, m):
        geom = Geometry(n, m)
        machine = Machine.blank(geom)
        assert machine.state == CrossbarState.zeros(geom)
        assert machine.checkmem == CheckMem.from_state(CrossbarState.zeros(geom))

    def test_two_blank_machines_share_no_cells(self):
        first, second = Machine.blank(G9), Machine.blank(G9)
        assert not np.shares_memory(first.state.cells, second.state.cells)
        assert not np.shares_memory(first.checkmem.planes, second.checkmem.planes)
        first.critical_op(init_op(Orientation.ROW, 4, range(9)))
        first.inject_check_flip(Bank.COUNTER, 1, 2, 0)
        assert second.state == CrossbarState.zeros(G9)
        assert second.checkmem == CheckMem.from_state(second.state)

    def test_runs_like_a_machine_built_from_zero_memory(self):
        blank, built = Machine.blank(G9, pc_pairs=2), Machine(CrossbarState.zeros(G9),
                                                              pc_pairs=2)
        for machine in (blank, built):
            machine.critical_op(init_op(Orientation.ROW, 4, {0, 5}))
            machine.noncritical_op(init_op(Orientation.COLUMN, 3, range(9)))
            machine.critical_op(nor_op(Orientation.COLUMN, (1, 2), 3, range(9)))
            machine.block_ecc_reset(1, 2)
            machine.check_block_row(1)
        assert blank.events == built.events
        assert blank.state == built.state and blank.checkmem == built.checkmem


class TestOneTouchPerDiagonal:
    def test_exhaustive_n9_m3(self):
        # every single op touches each (block, bank, diagonal) at most once
        lane_masks = [frozenset(s) for s in itertools.combinations(range(9), 1)]
        lane_masks += [frozenset(s) for s in itertools.combinations(range(9), 3)]
        lane_masks += [frozenset(range(9))]
        count = 0
        for orientation in Orientation:
            for out in range(9):
                for lanes in lane_masks:
                    op = init_op(orientation, out, lanes)
                    touched = touched_check_cells(*written_cells(op), G9)
                    assert len(touched) == 2 * len(lanes)
                    count += 1
        assert count == 2 * 9 * (9 + 84 + 1)


class TestCriticalOp:
    def test_reencode_matches_stored_after_any_critical_op(self):
        machine = random_consistent_machine(99)
        rng = np.random.default_rng(100)
        for k in range(30):
            out = int(rng.integers(0, 9))
            ins = tuple({int(x) for x in rng.integers(0, 9, 2)} - {out}) or ((out + 1) % 9,)
            lanes = frozenset(int(x) for x in rng.integers(0, 9, rng.integers(1, 5)))
            orientation = Orientation.ROW if k % 2 else Orientation.COLUMN
            machine.critical_op(init_op(orientation, out, lanes))
            machine.critical_op(nor_op(orientation, ins, out, lanes))
            assert consistent(machine)

    def test_no_change_leaves_checkmem_unchanged(self):
        cells = np.zeros((9, 9), dtype=np.uint8)
        cells[:3, 4] = 1
        machine = Machine(CrossbarState(G9, cells))
        before = CheckMem(machine.geom, machine.checkmem.planes.copy())
        # an Init over cells that are already 1: writing 1 over 1 cancels exactly
        machine.critical_op(init_op(Orientation.ROW, 4, {0, 1, 2}))
        assert machine.checkmem == before
        assert consistent(machine)

    def test_single_pair_serializes_on_writeback(self):
        machine = machine9(pc_pairs=1)
        assert machine.critical_op(init_op(Orientation.ROW, 0, {0})) == 0
        # after the first writeback frees the pair
        assert machine.critical_op(init_op(Orientation.ROW, 4, {3})) == 12
        assert run_stats(machine.events) == (12 - 3, [0], 0, 0)

    def test_four_pairs_reach_steady_state_every_three_cycles(self):
        machine = machine9(pc_pairs=4)
        issues = []
        for k in range(8):
            # distinct blocks and diagonals: no hazards, only unit contention
            out = (3 * k) % 9
            lane = 3 * ((k // 3) % 3)
            issues.append(machine.critical_op(init_op(Orientation.ROW, out, {lane})))
        assert issues == [3 * k for k in range(8)]
        assert run_stats(machine.events) == (0, [0, 1, 2, 3], 0, 0)

    def test_mem_busy_exactly_three_cycles(self):
        machine = machine9()
        machine.critical_op(init_op(Orientation.ROW, 0, {0}))
        mem_cycles = sorted(c for ev in machine.events if ev.unit == "MEM"
                            for c in range(ev.cycle, ev.end))
        assert mem_cycles == [0, 1, 2]

    def test_same_cell_hazard_stalls_until_writeback(self):
        machine = machine9(pc_pairs=4)
        assert machine.critical_op(init_op(Orientation.ROW, 0, {0})) == 0
        # column 0 again: same (block, diagonal) cells before writeback landed;
        # reads at 12, first cycle the cell is fresh
        assert machine.critical_op(init_op(Orientation.ROW, 0, {0})) == 11
        assert consistent(machine)

    def test_interleaved_criticals_and_checks_stay_consistent(self):
        # arbitrary interleaving on a fault-free machine: stored check-bits
        # always equal a re-encode, and checks find nothing to fix
        rng = np.random.default_rng(55)
        machine = random_consistent_machine(56, pc_pairs=2)
        for step in range(24):
            if step % 5 == 4:
                reports, _ = machine.check_block_row(int(rng.integers(0, 3)))
                assert all(r.diagnosis.kind is DiagnosisKind.CLEAN for r in reports)
            else:
                out = int(rng.integers(0, 9))
                lanes = frozenset(int(x) for x in rng.integers(0, 9, 2))
                machine.critical_op(init_op(Orientation.ROW, out, lanes))
            assert consistent(machine)

    def test_timed_equals_untimed_on_random_programs(self):
        # the pipeline's functional effect must match plain engine execution
        rng = np.random.default_rng(42)
        machine = random_consistent_machine(41, pc_pairs=2)
        shadow = machine.state.copy()
        for _ in range(40):
            out = int(rng.integers(0, 9))
            ins = tuple({int(x) for x in rng.integers(0, 9, 2)} - {out}) or ((out + 1) % 9,)
            lanes = frozenset(int(x) for x in rng.integers(0, 9, rng.integers(1, 4)))
            orientation = Orientation.ROW if rng.integers(0, 2) else Orientation.COLUMN
            op = nor_op(orientation, ins, out, lanes)
            preset = init_op(orientation, out, lanes)
            machine.critical_op(preset)
            machine.critical_op(op)
            shadow = execute(execute(shadow, preset), op)
        assert machine.state == shadow
        assert consistent(machine)


def oracle_names(touched, geom) -> str:
    """The ``cells=`` text of the flat check-bit indices ``touched``: counter
    bank first, each bank by (diagonal, block row, block column)."""
    m, nb = geom.m, geom.blocks_per_side
    bank, diag, bc, br = (a.tolist() for a in np.unravel_index(touched, (2, m, nb, nb)))
    bits = sorted(zip((1 - b for b in bank), diag, br, bc))  # counter (bank 1) first
    return ";".join(f"{'CL'[b]}{d}@{r},{c}" for b, d, r, c in bits)


@st.composite
def footprint_cases(draw):
    """A geometry, one lane, a contiguous run, a scattered set or every lane,
    an orientation, a written line, an Init or a NOR, and a memory seed. The
    geometries have more blocks per side than m, fewer (3 blocks of 15), one
    block, and the default's 68 blocks of 15."""
    geom = draw(st.sampled_from([Geometry(30, 3), Geometry(45, 5), Geometry(63, 7),
                                 Geometry(45, 15), Geometry(49, 49), Geometry(1020, 15)]))
    n = geom.n
    shape = draw(st.sampled_from(["one", "contiguous", "scattered", "all"]))
    if shape == "one":
        lanes = {draw(st.integers(0, n - 1))}
    elif shape == "contiguous":
        lo = draw(st.integers(0, n - 2))
        lanes = range(lo, draw(st.integers(lo + 2, n)))
    elif shape == "scattered":
        lanes = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
    else:
        lanes = range(n)
    return (geom, frozenset(lanes), draw(st.sampled_from(list(Orientation))),
            draw(st.integers(0, n - 1)), draw(st.booleans()), draw(st.integers(0, 2**16)))


class TestLaneFootprintOracle:
    """A critical op's footprint against :func:`touched_check_cells` of its
    :func:`written_cells` and the scalar :func:`update_parity` fold."""

    @settings(max_examples=150, deadline=None)
    @given(case=footprint_cases())
    def test_folds_books_and_names_the_oracle_check_bits(self, case):
        geom, lanes, orientation, line, nor, seed = case
        m, nb = geom.m, geom.blocks_per_side
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, 2, size=(geom.n, geom.n), dtype=np.uint8)
        plane = cells if orientation is Orientation.ROW else cells.T
        plane[sorted(lanes), line] = 1  # the NOR's preset
        machine = Machine(CrossbarState(geom, cells))
        # writes still in flight to some check-bits, this op's among them
        machine._check_ready[...] = rng.integers(0, 30, machine._check_ready.shape)
        ready = machine._check_ready.copy()
        op = (nor_op(orientation, ((line + 1) % geom.n, (line + 2) % geom.n), line, lanes)
              if nor else init_op(orientation, line, lanes))
        rows, cols = written_cells(op)
        touched = touched_check_cells(rows, cols, geom)
        expected = CheckMem(machine.geom, machine.checkmem.planes.copy())
        old = machine.state.cells[rows, cols]

        machine.critical_op(op)

        # the fold: update_parity per block of the written cells
        deltas = {}
        for row, col, a, b in zip(rows.tolist(), cols.tolist(), old.tolist(),
                                  machine.state.cells[rows, cols].tolist()):
            deltas.setdefault((row // m, col // m), []).append((row % m, col % m, a, b))
        for block, cell_deltas in deltas.items():
            set_parity(expected, *block, update_parity(expected.parity(*block), cell_deltas))
        assert machine.checkmem == expected
        # the check-bits it folds, in the oracle's order, and the ones it books
        bits, crossbars, names = lane_footprint(geom, orientation, lanes).at(line)
        assert np.ravel(bits).tolist() == touched.tolist()
        assert crossbars == sorted(set((touched // (nb * nb)).tolist()))
        booked = {unit for unit in machine._cbx_units if crossbar_busy(machine.timeline, unit)}
        assert booked == {machine._cbx_units[c] for c in crossbars}
        # its names, logged when the check-bits are loaded and written back
        logged = {ev.action: ev for ev in machine.events}
        assert (logged["load_check"].operands == logged["writeback"].operands
                == "cells=" + oracle_names(touched, geom))
        # its check-bits are read once they are ready, and ready again when
        # the writeback ends; no other check-bit's readiness moves
        assert logged["load_check"].cycle >= ready.reshape(-1)[touched].max()
        ready.reshape(-1)[touched] = logged["writeback"].end
        assert np.array_equal(machine._check_ready, ready)

    @pytest.mark.parametrize("lanes", [frozenset({7}), frozenset({0, 1, 2, 7, 29})])
    def test_two_geometries_sharing_a_lane_set_get_their_own_footprints(self, lanes):
        for geom in (Geometry(30, 3), Geometry(45, 5), Geometry(30, 3), Geometry(63, 7)):
            for orientation in Orientation:
                bits, _, names = lane_footprint(geom, orientation, lanes).at(13)
                touched = touched_check_cells(
                    *written_cells(init_op(orientation, 13, lanes)), geom)
                assert np.ravel(bits).tolist() == touched.tolist()
                assert names == oracle_names(touched, geom)


class TestCheckBlockRow:
    @pytest.mark.parametrize("timing", (TimingModel(),) + TIMINGS,
                             ids=["default", "TIMINGS[0]", "TIMINGS[1]"])
    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_clean_memory_all_clean(self, m, timing):
        # a clean check on an idle machine ends at the chain's closed form,
        # which the schedule's input_check_cycles reports
        machine = random_consistent_machine(1, Geometry(3 * m, m), timing=timing)
        reports, done = machine.check_block_row(0)
        assert all(r.diagnosis.kind is DiagnosisKind.CLEAN for r in reports)
        assert len(reports) == 3
        assert done == check_chain_cycles(m, timing)

    def test_chain_cycle_formula(self):
        assert xor3_tree_levels(3) == 1
        assert xor3_tree_levels(15) == 3
        tm = TimingModel()
        assert check_chain_cycles(3, tm) == 3 + 2 * 8 + 1
        assert check_chain_cycles(15, tm) == 15 + 4 * 8 + 1

    def test_every_single_flip_corrected_n9(self):
        for row in range(9):
            for col in range(9):
                machine = random_consistent_machine(row * 9 + col)
                golden = machine.state.cells.copy()
                machine.inject_data_flip(row, col)
                reports, _ = machine.check_block_row(row // 3)
                dirty = [k for k, r in enumerate(reports)
                         if r.diagnosis.kind is not DiagnosisKind.CLEAN]
                assert dirty == [col // 3]  # a row check's k-th report is block column k
                rep = reports[col // 3]
                assert rep.diagnosis.kind is DiagnosisKind.DATA_ERROR
                assert (rep.diagnosis.i, rep.diagnosis.j) == (row % 3, col % 3)
                assert np.array_equal(machine.state.cells, golden)
                assert consistent(machine)

    def test_column_orientation(self):
        machine = random_consistent_machine(8)
        golden = machine.state.cells.copy()
        machine.inject_data_flip(7, 2)
        reports, _ = machine.check_block_row(0, Orientation.COLUMN)
        assert len(reports) == 3
        # a column check's k-th report is block row k
        assert [k for k, r in enumerate(reports)
                if r.diagnosis.kind is not DiagnosisKind.CLEAN] == [2]
        assert np.array_equal(machine.state.cells, golden)

    def test_double_flip_same_leading_diagonal_uncorrectable(self):
        machine = machine9()
        machine.inject_data_flip(0, 0)
        machine.inject_data_flip(1, 2)  # both on leading diagonal 0 of block (0,0)
        reports, _ = machine.check_block_row(0)
        assert reports[0].diagnosis.kind is DiagnosisKind.UNCORRECTABLE

    def test_check_bit_flip_corrected(self):
        machine = random_consistent_machine(21)
        machine.inject_check_flip(Bank.COUNTER, 2, 0, 1)
        assert not consistent(machine)
        reports, _ = machine.check_block_row(0)
        assert reports[1].diagnosis.kind is DiagnosisKind.CHECK_BIT_ERROR
        assert consistent(machine)

    @pytest.mark.parametrize("diag, block_row, block_col", [
        (-1, 0, 0), (3, 0, 0), (0, -1, 0), (0, 10, 0), (0, 0, -1), (0, 0, 10)])
    def test_check_flip_outside_the_check_bits_rejected(self, diag, block_row, block_col):
        # 30/3: diagonals 0-2, block rows and columns 0-9; a negative index
        # must not wrap round to the last one
        machine = Machine.blank(Geometry(30, 3))
        for bank in Bank:
            with pytest.raises(GeometryError):
                machine.inject_check_flip(bank, diag, block_row, block_col)
        assert not machine.checkmem.planes.any()

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_every_uncorrectable_block_shares_one_diagnosis(self, orientation):
        # every cell 1 and every check-bit 0: each diagonal of a 3 x 3 block
        # holds three ones, so every bit of every syndrome is set
        machine = Machine.blank(Geometry(30, 3))
        machine.state.cells[:] = 1
        reports, _ = machine.check_block_row(4, orientation)
        assert len(reports) == 10
        assert all(report.diagnosis is UNCORRECTABLE for report in reports)
        assert not machine.checkmem.planes.any()  # nothing corrected
        # and one shared report, in every check and in a whole sweep
        shared = reports[0]
        assert all(report is shared for report in reports)
        assert all(report is shared for report in machine.check_block_row(5, orientation)[0])
        reports = machine.full_memory_check(orientation)
        assert len(reports) == 100 and all(report is shared for report in reports)
        assert run_stats(machine.events)[2:] == (0, 10 + 10 + 100)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_shared_clean_reports_do_not_leak_between_checks(self, orientation):
        # a data flip in the line's first block and a check-bit flip in its
        # last; every clean block's report is one shared object
        geom, index = Geometry(45, 5), 4
        nb = geom.blocks_per_side
        machine = random_consistent_machine(4504, geom)
        golden = machine.state.cells.copy()
        line = [(index, k) if orientation is Orientation.ROW else (k, index)
                for k in range(nb)]
        (first_br, first_bc), (last_br, last_bc) = line[0], line[-1]
        machine.inject_data_flip(first_br * 5 + 1, first_bc * 5 + 3)
        machine.inject_check_flip(Bank.COUNTER, 2, last_br, last_bc)
        clean = [BlockReport(Diagnosis(DiagnosisKind.CLEAN))] * nb
        expect = ([BlockReport(Diagnosis(DiagnosisKind.DATA_ERROR, i=1, j=3))] + clean[1:-1]
                  + [BlockReport(Diagnosis(DiagnosisKind.CHECK_BIT_ERROR,
                                           bank=Bank.COUNTER, idx=2))])

        first, _ = machine.check_block_row(index, orientation)
        assert first == expect
        assert np.array_equal(machine.state.cells, golden) and consistent(machine)
        second, _ = machine.check_block_row(index, orientation)
        assert second == clean
        assert first == expect and first is not second
        # a caller may change the list it got without changing the next one
        second[0] = first[0]
        third, _ = machine.check_block_row(index, orientation)
        assert third == clean

    def test_mem_freed_after_copies(self):
        machine = machine9()
        machine.check_block_row(0)
        assert machine.timeline.next_free("MEM") == 3  # m copy cycles only
        t = machine.noncritical_op(init_op(Orientation.ROW, 0, {0}))
        assert t == 3


class TestFullMemoryCheck:
    def test_clean(self):
        machine = random_consistent_machine(2)
        assert machine.full_memory_check() == [BlockReport(CLEAN)] * 9
        assert run_stats(machine.events)[2:] == (0, 0)

    def test_five_flips_in_five_blocks(self):
        machine = random_consistent_machine(3)
        golden = machine.state.cells.copy()
        for k, (row, col) in enumerate([(0, 0), (0, 3), (4, 4), (8, 2), (5, 8)]):
            machine.inject_data_flip(row, col)
        machine.full_memory_check()
        assert run_stats(machine.events)[2:] == (5, 0)
        assert np.array_equal(machine.state.cells, golden)

    def test_two_flips_one_block_uncorrectable(self):
        machine = random_consistent_machine(4)
        machine.inject_data_flip(4, 4)
        machine.inject_data_flip(5, 3)
        machine.full_memory_check()
        assert run_stats(machine.events)[2:] == (0, 1)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_a_report_names_its_block_by_position(self, orientation):
        # one data flip in every block, each at a cell that names its block;
        # a ROW sweep lists block (br, bc) at br * nb + bc, as injection_campaign
        # reads it, and a COLUMN sweep at bc * nb + br
        geom = Geometry(45, 5)
        m, nb = geom.m, geom.blocks_per_side
        machine = random_consistent_machine(45, geom)
        for br in range(nb):
            for bc in range(nb):
                machine.inject_data_flip(br * m + br % m, bc * m + bc % m)
        reports = machine.full_memory_check(orientation)
        assert len(reports) == nb * nb
        for p, report in enumerate(reports):
            br, bc = divmod(p, nb)
            if orientation is Orientation.COLUMN:
                br, bc = bc, br
            assert report.diagnosis == Diagnosis(DiagnosisKind.DATA_ERROR,
                                                 i=br % m, j=bc % m), p

    def test_chains_pipeline_across_pc_pairs(self):
        machine = machine9(pc_pairs=3)
        machine.full_memory_check()
        starts = [ev.cycle for ev in machine.events if ev.action == "check_row"]
        # MEM frees after each chain's 3 copies, so chains launch back to back
        assert starts == [0, 3, 6]


class TestFullScaleGeometry:
    def test_full_check_corrects_sparse_flips_at_1020_15(self):
        geom = Geometry(1020, 15)
        rng = np.random.default_rng(1)
        cells = rng.integers(0, 2, size=(1020, 1020), dtype=np.uint8)
        machine = Machine(CrossbarState(geom, cells))
        golden = machine.state.cells.copy()
        by_block = {}
        for row, col in rng.integers(0, 1020, size=(20, 2)):
            by_block.setdefault((row // 15, col // 15), (int(row), int(col)))
        for row, col in by_block.values():  # one flip per block: all correctable
            machine.inject_data_flip(row, col)
        machine.full_memory_check()
        assert run_stats(machine.events)[2:] == (len(by_block), 0)
        assert np.array_equal(machine.state.cells, golden)
        assert consistent(machine)


class TestEventDiscipline:
    def test_no_unit_runs_two_events_in_one_cycle(self):
        machine = random_consistent_machine(77, pc_pairs=2)
        machine.inject_data_flip(2, 2)
        machine.inject_data_flip(6, 7)
        machine.full_memory_check()
        for k in range(6):
            machine.critical_op(init_op(Orientation.ROW, k, {k}))
        machine.check_block_row(1)
        busy: dict[str, set[int]] = {}
        for ev in machine.events:
            if ev.unit == "SCHED":
                continue  # annotations, not unit occupancy
            cycles = busy.setdefault(ev.unit, set())
            for c in range(ev.cycle, ev.end):
                assert c not in cycles, f"{ev.unit} double-booked at {c}"
                cycles.add(c)

    def test_run_stats_read_stalls_and_pairs_off_the_events(self):
        events = [Event(0, "SCHED", "stall", "op_out=3 wait=4", 4),
                  Event(1, "PC2", "xor3", "line=3", 8), Event(2, "SCHED", "block_reset"),
                  Event(3, "PC0", "writeback", "cells=C0@0,0;L0@0,0"),
                  Event(4, "MEM", "op", "kind=init"), Event(9, "SCHED", "stall", "", 2),
                  Event(11, "PC2", "xor3_tree", "vectors=3 levels=1", 8),
                  Event(19, "CTRL", "read_syndrome", "block=0,1 result=data_error"),
                  Event(20, "MEM", "correct_data", "cell=1,4"),
                  Event(21, "CTRL", "read_syndrome", "block=0,2 result=uncorrectable"),
                  Event(22, "CTRL", "read_syndrome", "block=1,0 result=check_bit_error"),
                  Event(23, "CBX:counter:1", "correct_check", "block=1,0 diag=1")]
        stats = run_stats(events)
        assert stats == (6, [0, 2], 2, 1)
        assert (stats.stall_cycles, stats.pairs, stats.corrected, stats.uncorrectable) == stats
        assert run_stats([]) == (0, [], 0, 0)

    def test_event_line_round_trip(self):
        machine = machine9()
        machine.critical_op(init_op(Orientation.ROW, 4, {1, 2}))
        for ev in machine.events:
            assert Event.from_line(ev.to_line()) == ev


class TestDeviceCounts:
    def test_case_study_sizing(self):
        counts = device_counts(1020, 15, 3)
        by_unit = {r.unit: r for r in counts.rows}
        assert by_unit["Data (MEM)"].memristors == 1_040_400
        assert by_unit["Check-Bits"].memristors == 138_720
        assert by_unit["Processing XBs"].memristors == 67_320
        assert by_unit["Checking XB"].memristors == 2_040
        assert by_unit["Shifters"].transistors == 61_200
        assert by_unit["Connection Unit"].transistors == 14_280
        assert counts.total_memristors == 1_248_480
        assert counts.total_transistors == 75_480

    def test_single_block_case(self):
        counts = device_counts(15, 15, 1)
        by_unit = {r.unit: r for r in counts.rows}
        assert by_unit["Data (MEM)"].memristors == 225
        assert by_unit["Check-Bits"].memristors == 30

    def test_small_case(self):
        counts = device_counts(9, 3, 2)
        assert {r.unit: r for r in counts.rows}["Check-Bits"].memristors == 54

    def test_invalid_geometry(self):
        with pytest.raises(GeometryError):
            device_counts(10, 3, 1)


class TestMultiLaneCriticalOps:
    """Full-lane critical ops at 45/5. One PC pair stalls on the busy pair;
    four pairs stall on same-cell hazards and check-bit crossbar conflicts.

    The digests pin the event log and both check-bit planes; the fold of
    the scalar :func:`update_parity` per block is the oracle for the planes.
    """

    GEOM = Geometry(45, 5)
    # pc_pairs -> (sha256 of the event lines, sha256 of both planes)
    DIGESTS = {
        1: ("d6061f047d6ff95431bd5c9b2aa334a48cbfe4765049803a5e02b93aac47d3f9",
            "de36f749a8d29b87324324d3861704eb4de737165e8815175fe0af3f472c3b40"),
        4: ("4530348a6869e9acb9a2cb4c6e455c24c5afab46c079baea83af425befcbb505",
            "de36f749a8d29b87324324d3861704eb4de737165e8815175fe0af3f472c3b40"),
    }

    def _program(self):
        lanes = frozenset(range(45))
        ops = []
        # ROW ops write columns in block columns 0, 2 and 8; init+NOR on one
        # column hits the same check-bits back to back
        for out, ins in ((3, (0, 1)), (12, (2, 3)), (44, (12, 40)), (13, (3, 44))):
            ops += [init_op(Orientation.ROW, out, lanes),
                    nor_op(Orientation.ROW, ins, out, lanes)]
        # COLUMN ops write rows in block rows 1 and 6, one of them twice
        for out, ins in ((7, (20, 21)), (33, (7,)), (7, (0, 44))):
            ops += [init_op(Orientation.COLUMN, out, lanes),
                    nor_op(Orientation.COLUMN, ins, out, lanes)]
        return ops

    def _run(self, pc_pairs):
        rng = np.random.default_rng(2045)
        cells = rng.integers(0, 2, size=(45, 45), dtype=np.uint8)
        machine = Machine(CrossbarState(self.GEOM, cells), pc_pairs=pc_pairs)
        m, nb = 5, 9
        oracle = {(br, bc): encode_block(machine.state.blocks[br, bc])
                  for br in range(nb) for bc in range(nb)}
        machine.block_ecc_reset(4, 2)
        oracle[(4, 2)] = encode_block(np.ones((m, m), dtype=np.uint8))
        for op in self._program():
            before = machine.state.cells.copy()
            machine.critical_op(op)
            per_block = {}
            written = ([(lane, op.output_line) for lane in op.lane_mask]
                       if op.orientation is Orientation.ROW
                       else [(op.output_line, lane) for lane in op.lane_mask])
            for row, col in written:
                per_block.setdefault((row // m, col // m), []).append(
                    (row % m, col % m, int(before[row, col]),
                     int(machine.state.cells[row, col])))
            for key, deltas in per_block.items():
                oracle[key] = update_parity(oracle[key], deltas)
        events = "\n".join(ev.to_line() for ev in machine.events).encode()
        planes = machine.checkmem.planes.tobytes()
        return (machine, oracle, hashlib.sha256(events).hexdigest(),
                hashlib.sha256(planes).hexdigest())

    @pytest.mark.parametrize("pc_pairs", [1, 4])
    def test_planes_equal_the_scalar_fold_per_block(self, pc_pairs):
        machine, oracle, _, _ = self._run(pc_pairs)
        for (br, bc), parity in oracle.items():
            assert machine.checkmem.parity(br, bc) == parity
        assert consistent(machine)
        assert run_stats(machine.events).stall_cycles > 0

    @pytest.mark.parametrize("pc_pairs", [1, 4])
    def test_events_and_planes_match_pinned_digests(self, pc_pairs):
        _, _, events_sha, planes_sha = self._run(pc_pairs)
        assert (events_sha, planes_sha) == self.DIGESTS[pc_pairs]


class TestCheckPathPinned:
    """A full-memory check at 45/5 over every diagnosis kind, in both
    orientations: two single data flips, a leading and a counter check-bit
    flip, a two-flip block and a leading+counter check-bit pair (the blind
    spot, miscorrected as a data error), each in a distinct block.

    The digests pin the report tuples, the event lines, the final cells and
    both check-bit planes.
    """

    GEOM = Geometry(45, 5)
    # orientation -> sha256 of (reports, events, cells, planes)
    DIGESTS = {
        Orientation.ROW: (
            "57876ca93277e0907b47eaa31d5f57517a5ad55f400713b5b04cb467191863b6",
            "5ac65b5db79f6059ca5d3f1f11713cf13b42b714ca4d972fe8d28411d85a4485",
            "24411c3c56b5118310233f51e0e45c7031677503f8366940a3ddfdf414209dae",
            "852349c7adb885f83c578500c3566d5ea74a01a2c776913b9617aaa34c9b8505"),
        Orientation.COLUMN: (
            "30f6d7e37fd1de3103032d0e7cbaca2ff09d2b3bb4bbed8daa7c891812ac75f2",
            "c1db231242594809c3cf7adfaaa8cee4d3199869bc3a47b3761b0727d7ed5e60",
            "24411c3c56b5118310233f51e0e45c7031677503f8366940a3ddfdf414209dae",
            "852349c7adb885f83c578500c3566d5ea74a01a2c776913b9617aaa34c9b8505"),
    }

    def _run(self, orientation):
        rng = np.random.default_rng(4505)
        cells = rng.integers(0, 2, size=(45, 45), dtype=np.uint8)
        machine = Machine(CrossbarState(self.GEOM, cells), pc_pairs=2)
        machine.inject_data_flip(1, 2)                  # block (0, 0)
        machine.inject_data_flip(23, 41)                # block (4, 8)
        machine.inject_check_flip(Bank.LEADING, 3, 2, 5)
        machine.inject_check_flip(Bank.COUNTER, 0, 8, 1)
        machine.inject_data_flip(30, 30)                # block (6, 6), twice
        machine.inject_data_flip(33, 34)
        machine.inject_check_flip(Bank.LEADING, 1, 7, 3)  # block (7, 3), blind spot
        machine.inject_check_flip(Bank.COUNTER, 4, 7, 3)
        reports = machine.full_memory_check(orientation)
        rows = [(*block, r.diagnosis.kind.value, r.diagnosis.i,
                 r.diagnosis.j, r.diagnosis.bank and r.diagnosis.bank.value,
                 r.diagnosis.idx) for block, r in self._by_block(reports, orientation)]
        events = "\n".join(ev.to_line() for ev in machine.events)
        planes = machine.checkmem.planes.tobytes()
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            repr(rows).encode(), events.encode(),
            machine.state.cells.tobytes(), planes))
        return machine, reports, digests

    def _by_block(self, reports, orientation):
        """((block row, block column), report) in sweep order: a sweep lists
        line after line, each line's blocks in order."""
        nb = self.GEOM.blocks_per_side
        for p, report in enumerate(reports):
            line, k = divmod(p, nb)
            yield ((line, k) if orientation is Orientation.ROW else (k, line)), report

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_every_diagnosis_kind_is_reported(self, orientation):
        machine, reports, _ = self._run(orientation)
        dirty = {block: r.diagnosis.kind
                 for block, r in self._by_block(reports, orientation)
                 if r.diagnosis.kind is not DiagnosisKind.CLEAN}
        assert dirty == {
            (0, 0): DiagnosisKind.DATA_ERROR,
            (4, 8): DiagnosisKind.DATA_ERROR,
            (2, 5): DiagnosisKind.CHECK_BIT_ERROR,
            (8, 1): DiagnosisKind.CHECK_BIT_ERROR,
            (6, 6): DiagnosisKind.UNCORRECTABLE,
            (7, 3): DiagnosisKind.DATA_ERROR,
        }
        assert run_stats(machine.events)[2:] == (5, 1)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_reports_events_cells_and_planes_match_pinned_digests(self, orientation):
        _, _, digests = self._run(orientation)
        assert digests == self.DIGESTS[orientation]


# ----------------------------------------------------------------------
# the line check and the block reset against scalar oracles

def oracle_line_check(machine, index, orientation):
    """Expected result of ``check_block_row`` from the scalar codec.

    Each block of the line is re-encoded and compared with its stored
    check-bits, then decoded and corrected on copies. Returns the reports in
    block order, the final cells and check-bits, and the (unit, action,
    operands) of every record logged after the check's fixed prologue.
    """
    geom = machine.geom
    m, nb = geom.m, geom.blocks_per_side
    cells = machine.state.cells.copy()
    cm = CheckMem(machine.geom, machine.checkmem.planes.copy())
    reports, records = [], []
    for k in range(nb):
        br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
        block = cells[br * m:(br + 1) * m, bc * m:(bc + 1) * m]
        stored = cm.parity(br, bc)
        fresh = encode_block(block)
        diag = decode_syndrome(BlockParity(
            tuple(a ^ b for a, b in zip(fresh.leading, stored.leading)),
            tuple(a ^ b for a, b in zip(fresh.counter, stored.counter))))
        reports.append(BlockReport(diag))
        if diag.kind is DiagnosisKind.CLEAN:
            continue
        records.append(("CTRL", "read_syndrome",
                        f"block={br},{bc} result={diag.kind.value}"))
        if diag.kind is DiagnosisKind.UNCORRECTABLE:
            continue
        fixed, parity = apply_correction(block, stored, diag)
        block[...] = fixed
        set_parity(cm, br, bc, parity)
        if diag.kind is DiagnosisKind.DATA_ERROR:
            records.append(("MEM", "correct_data",
                            f"cell={br * m + diag.i},{bc * m + diag.j}"))
        else:
            records.append((f"CBX:{diag.bank.value}:{diag.idx}", "correct_check",
                            f"block={br},{bc} diag={diag.idx}"))
    return reports, cells, cm, records


MEMORIES = ("random", "blank", "all-ones", "tiled")


def consistent_memory(geom, memory, seed) -> Machine:
    """A machine whose check-bits encode its cells: random cells, all zero,
    all one, or one random block tiled over the memory, so that every block
    of a line holds the same bits."""
    if memory == "random":
        return random_consistent_machine(seed, geom)
    n, m, nb = geom.n, geom.m, geom.blocks_per_side
    cells = {"blank": lambda: np.zeros((n, n), dtype=np.uint8),
             "all-ones": lambda: np.ones((n, n), dtype=np.uint8),
             "tiled": lambda: np.tile(np.random.default_rng(seed).integers(
                 0, 2, (m, m), dtype=np.uint8), (nb, nb)),
             }[memory]()
    return Machine(CrossbarState(geom, cells))


@st.composite
def faulty_lines(draw):
    """A geometry, its memory (:data:`MEMORIES`), a line of blocks and up
    to two faults in each block.

    A fault is a data-bit or a stored check-bit flip; the explicit pair of
    one leading and one counter check-bit flip is the decoder's blind spot.
    On a blank, all-ones or tiled line, a block with only check-bit faults
    keeps fresh bits equal to those of every clean block of the line.
    """
    geom = draw(st.sampled_from([Geometry(45, 3), Geometry(45, 5), Geometry(63, 7)]))
    m, nb = geom.m, geom.blocks_per_side
    diag = st.integers(0, m - 1)
    data = st.tuples(st.just("data"), diag, diag)
    check = st.tuples(st.just("check"), st.sampled_from(list(Bank)), diag)
    blind = st.tuples(diag, diag).map(
        lambda dd: [("check", Bank.LEADING, dd[0]), ("check", Bank.COUNTER, dd[1])])
    faults = st.one_of(st.lists(st.one_of(data, check), max_size=2), blind)
    return (geom, draw(st.sampled_from(MEMORIES)), draw(st.sampled_from(list(Orientation))),
            draw(st.integers(0, nb - 1)), draw(st.integers(0, 2**32 - 1)),
            draw(st.lists(faults, min_size=nb, max_size=nb)))


def inject_line_faults(machine, index, orientation, faults) -> None:
    """Inject each block's faults, block k of the line taking ``faults[k]``,
    and one data flip in a block off the line, which stays where it is."""
    m, nb = machine.geom.m, machine.geom.blocks_per_side
    for k, block_faults in enumerate(faults):
        br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
        for kind, a, b in block_faults:
            if kind == "data":
                machine.inject_data_flip(br * m + a, bc * m + b)
            else:
                machine.inject_check_flip(a, b, br, bc)
    machine.inject_data_flip(((index + 1) % nb) * m, ((index + 1) % nb) * m)


class TestLineCheckOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=faulty_lines())
    def test_reports_cells_planes_and_events_match_the_scalar_oracle(self, case):
        geom, memory, orientation, index, seed, faults = case
        machine = consistent_memory(geom, memory, seed)
        inject_line_faults(machine, index, orientation, faults)
        self.check_against_oracle(machine, index, orientation)

    @pytest.mark.parametrize("memory", ["blank", "all-ones", "tiled"])
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_a_dirty_block_whose_fresh_bits_equal_a_clean_neighbours(self, memory,
                                                                       orientation):
        # blocks 1 and 4 hold a flipped check-bit, so their fresh bits are
        # those of their clean neighbours and only their stored bits differ;
        # block 6 holds the blind spot, block 2 a data flip
        geom = Geometry(45, 5)
        faults = [[] for _ in range(geom.blocks_per_side)]
        faults[1] = [("check", Bank.LEADING, 3)]
        faults[2] = [("data", 1, 4)]
        faults[4] = [("check", Bank.COUNTER, 0)]
        faults[6] = [("check", Bank.LEADING, 2), ("check", Bank.COUNTER, 4)]
        machine = consistent_memory(geom, memory, 3)
        inject_line_faults(machine, 5, orientation, faults)
        reports = self.check_against_oracle(machine, 5, orientation)
        kinds = [r.diagnosis.kind for r in reports]
        assert kinds[1] is kinds[4] is DiagnosisKind.CHECK_BIT_ERROR
        assert kinds[2] is kinds[6] is DiagnosisKind.DATA_ERROR  # the blind spot
        assert kinds.count(DiagnosisKind.CLEAN) == geom.blocks_per_side - 4

    @staticmethod
    def check_against_oracle(machine, index, orientation) -> list[BlockReport]:
        """Check the line and compare its reports, cells, check-bits and
        records with :func:`oracle_line_check`'s; returns the reports."""
        m = machine.geom.m
        reports, cells, cm, records = oracle_line_check(machine, index, orientation)
        logged = len(machine.events)

        got, done = machine.check_block_row(index, orientation)

        assert got == reports
        assert np.array_equal(machine.state.cells, cells)
        assert machine.checkmem == cm
        events = machine.events[logged:]
        prologue = 1 + m + (xor3_tree_levels(m) > 0) + 2
        assert [ev.action for ev in events[:prologue]] == (
            ["check_row"] + ["copy_row"] * m + ["xor3_tree"] * (xor3_tree_levels(m) > 0)
            + ["syndrome_xor3", "zero_compare"])
        assert [(ev.unit, ev.action, ev.operands) for ev in events[prologue:]] == records
        # the events count the outcomes the reports name
        kinds = [r.diagnosis.kind for r in got]
        assert run_stats(events)[2:] == (
            kinds.count(DiagnosisKind.DATA_ERROR) + kinds.count(DiagnosisKind.CHECK_BIT_ERROR),
            kinds.count(DiagnosisKind.UNCORRECTABLE))
        assert done == max(ev.end for ev in events)
        return got


@st.composite
def laid_out_lines(draw):
    """A geometry, an orientation, a line of blocks, random cells and 0-2
    flips on that line, each a data-bit or a stored check-bit flip."""
    geom = draw(st.sampled_from([Geometry(30, 3), Geometry(45, 5), Geometry(63, 7)]))
    m, nb = geom.m, geom.blocks_per_side
    index = draw(st.integers(0, nb - 1))
    block, diag = st.integers(0, nb - 1), st.integers(0, m - 1)
    data = st.tuples(st.just("data"), block, diag, diag)
    check = st.tuples(st.just("check"), block, st.sampled_from(list(Bank)), diag)
    return (geom, draw(st.sampled_from(list(Orientation))), index,
            draw(st.integers(0, 2**32 - 1)),
            draw(st.lists(st.one_of(data, check), max_size=2)))


LAYOUTS = {
    "C": lambda cells: cells,
    "Fortran": np.asfortranarray,
    "transposed view": lambda cells: np.ascontiguousarray(cells.T).T,
}


class TestLayoutSafeGather:
    """The one gather of the check path reads the right cells whatever the
    memory's layout: a line's fresh check-bits through
    ``CrossbarState.blocks``, ``CheckMem.from_state`` and
    ``check_block_row``'s reports against a per-block ``encode_block`` oracle."""

    @settings(max_examples=40, deadline=None)
    @given(case=laid_out_lines())
    def test_fresh_bits_planes_and_reports_match_the_scalar_codec(self, case):
        geom, orientation, index, seed, flips = case
        n, m, nb = geom.n, geom.m, geom.blocks_per_side
        values = np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)
        expect = {(br, bc): encode_block(values[br * m:(br + 1) * m, bc * m:(bc + 1) * m])
                  for br in range(nb) for bc in range(nb)}
        by_row = orientation is Orientation.ROW
        line = [(index, k) if by_row else (k, index) for k in range(nb)]
        for name, lay_out in LAYOUTS.items():
            cells = lay_out(values.copy())
            assert np.array_equal(cells, values), name
            state = CrossbarState(geom, cells)
            blocks = state.blocks
            fresh = diag_parity(blocks[index] if by_row else blocks[:, index]).tolist()
            assert [BlockParity(tuple(lead), tuple(ctr)) for lead, ctr in fresh] == [
                expect[block] for block in line], name
            cm = CheckMem.from_state(state)
            assert {block: cm.parity(*block) for block in expect} == expect, name

            # a machine holding these very cells, layout and all
            machine = Machine(state, _checkmem=cm)
            assert machine.state.cells.strides == cells.strides, name
            for kind, k, a, b in flips:
                br, bc = line[k]
                if kind == "data":
                    machine.inject_data_flip(br * m + a, bc * m + b)
                else:
                    machine.inject_check_flip(a, b, br, bc)
            reports, after, planes, _ = oracle_line_check(machine, index, orientation)
            got, _ = machine.check_block_row(index, orientation)
            assert got == reports, name
            assert np.array_equal(machine.state.cells, after), name
            assert machine.checkmem == planes, name

    def test_the_block_view_neither_copies_nor_writes(self):
        geom = Geometry(1020, 15)
        cells = np.random.default_rng(5).integers(0, 2, (1020, 1020), dtype=np.uint8)
        machine = Machine(CrossbarState(geom, cells))
        blocks = machine.state.blocks
        assert blocks.shape == (68, 68, 15, 15)
        assert np.shares_memory(blocks, machine.state.cells)
        assert not blocks.flags.writeable
        machine.check_block_row(1)  # warm the codec's caches
        for orientation in Orientation:
            tracemalloc.start()
            try:
                machine.check_block_row(0, orientation)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # a copy of the memory would be 1 MiB; the line's gather is ~30 KiB
            assert peak < 256 * 2**10, orientation


class TestOneSyndromePerBlock:
    """One ``compute_syndrome`` call per checked block, as the benchmark's
    per-layer counters assume."""

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_full_memory_check_at_45_5(self, orientation, monkeypatch):
        calls = []
        real = checkmem.compute_syndrome

        def counted(fresh, stored):
            calls.append(fresh.m)
            return real(fresh, stored)

        monkeypatch.setattr(checkmem, "compute_syndrome", counted)
        geom = Geometry(45, 5)
        machine = random_consistent_machine(45, geom)
        machine.inject_data_flip(7, 31)
        machine.full_memory_check(orientation)
        assert calls == [5] * geom.blocks_per_side ** 2
        assert run_stats(machine.events).corrected == 1

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_only_dirty_blocks_are_decoded(self, orientation, monkeypatch):
        decoded = []
        real = checkmem.decode_syndrome

        def counted(syndrome):
            decoded.append(syndrome)
            return real(syndrome)

        monkeypatch.setattr(checkmem, "decode_syndrome", counted)
        geom = Geometry(45, 5)
        machine = random_consistent_machine(45, geom)
        machine.inject_data_flip(7, 31)                   # block (1, 6)
        machine.inject_check_flip(Bank.LEADING, 2, 8, 0)  # block (8, 0)
        machine.full_memory_check(orientation)
        assert len(decoded) == 2 and zero_syndrome(5) not in decoded
        assert run_stats(machine.events).corrected == 2


class TestOneRecordPerPattern:
    """A line check builds one ``BlockParity`` per distinct check-bit
    pattern among its blocks' fresh and stored bits."""

    @staticmethod
    def records_built(machine, monkeypatch, orientation) -> int:
        built = []

        def counted(leading, counter):
            built.append(leading + counter)
            return BlockParity(leading, counter)

        monkeypatch.setattr(checkmem, "BlockParity", counted)
        machine.check_block_row(2, orientation)
        return len(built)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_at_45_5(self, orientation, monkeypatch):
        geom = Geometry(45, 5)
        nb = geom.blocks_per_side
        assert self.records_built(Machine.blank(geom), monkeypatch, orientation) == 1
        ones = Machine.blank(geom)
        ones.state.cells[:] = 1  # fresh bits all one, stored all zero
        assert self.records_built(ones, monkeypatch, orientation) == 2
        random = random_consistent_machine(45, geom)
        assert self.records_built(random, monkeypatch, orientation) <= nb


def sweep_faults(geom, case):
    """The flips of a :class:`TestSweepGather` case: (kind, row or bank,
    col or diag, block row, block col) in blocks spread over lines next to
    each other, so that one line's corrections precede the next line's
    check."""
    m, nb = geom.m, geom.blocks_per_side
    blocks = [(0, 0), (0, nb - 1), (1, 1), (2, 0), (nb - 1, 2), (nb - 1, nb - 1)]
    if case == "single flips":
        return [("data", (br + bc) % m, (2 * br + bc) % m, br, bc) for br, bc in blocks]
    if case == "two flips in one block":
        return [("data", 0, 0, 1, 1), ("data", 1, 2, 1, 1),   # one block, two flips
                ("data", 2, 1, 2, 1), ("data", 0, 2, 1, 2)]  # and single flips next to it
    # check-bit flips, the leading+counter blind spot of block (1, 0) among them
    return ([("check", tuple(Bank)[k % 2], k % m, br, bc) for k, (br, bc) in enumerate(blocks)]
            + [("check", Bank.LEADING, 1, 1, 0), ("check", Bank.COUNTER, 2, 1, 0)])


class TestSweepGather:
    """``full_memory_check`` takes the fresh check-bits of a group of lines
    in one gather before the group's first line, where a lone
    ``check_block_row`` gathers its line when it is checked. A correction
    writes only its own block and a sweep checks each block once, so a
    sweep equals its lines checked one by one on a copy, check-bits in
    flight included, with every line in one group (as these geometries
    are by default) or with two lines per group."""

    @pytest.mark.parametrize("geom", [Geometry(30, 3), Geometry(45, 5), Geometry(63, 7)])
    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("case", ["single flips", "two flips in one block",
                                      "check-bit flips"])
    @pytest.mark.parametrize("layout", ["C", "Fortran"])
    @pytest.mark.parametrize("lines_per_gather", ["all", 2])
    def test_a_sweep_equals_its_lines_checked_one_by_one(self, geom, orientation, case,
                                                         layout, lines_per_gather,
                                                         monkeypatch):
        n, m, nb = geom.n, geom.m, geom.blocks_per_side
        if lines_per_gather == "all":
            assert checkmem.SWEEP_GATHER_BYTES >= nb * 2 * m * m * nb
        else:  # the temporary of one line's gather is 2 m^2 bytes per block
            monkeypatch.setattr(checkmem, "SWEEP_GATHER_BYTES",
                                lines_per_gather * 2 * m * m * nb + 1)
        values = np.random.default_rng(n * m).integers(0, 2, (n, n), dtype=np.uint8)
        state = CrossbarState(geom, LAYOUTS[layout](values))
        machine = Machine(state, pc_pairs=2, _checkmem=CheckMem.from_state(state))
        # a full-lane op whose writebacks are still in flight when the sweep starts
        machine.critical_op(init_op(Orientation.ROW, m + 1, frozenset(range(n))))
        for kind, a, b, br, bc in sweep_faults(geom, case):
            if kind == "data":
                machine.inject_data_flip(br * m + a, bc * m + b)
            else:
                machine.inject_check_flip(a, b, br, bc)
        lines = copy.deepcopy(machine)

        swept = machine.full_memory_check(orientation, earliest=2)
        reports = []
        for index in range(nb):
            reports += lines.check_block_row(index, orientation, earliest=2)[0]

        assert swept == reports
        assert run_stats(machine.events).corrected > 0
        assert np.array_equal(machine.state.cells, lines.state.cells)
        assert machine.checkmem == lines.checkmem
        assert machine.events == lines.events
        assert np.array_equal(machine._check_ready, lines._check_ready)
        assert machine.horizon == lines.horizon
        assert machine.state.cells.strides == lines.state.cells.strides


def check_run_actions(geom, zero_cell):
    """The action list of :class:`TestCheckRuns`: a full-lane
    critical op whose writebacks are still in flight, then runs of line
    checks that repeat a line or switch orientation, with a noncritical op
    (an ECC-blind write of ``zero_cell``, a 0 cell of block (nb-2, 0)) and a
    reset (of block (nb-1, 2), which holds a flip) between them. The flips
    of :func:`sweep_faults` lie in lines that come later in a run."""
    m, nb, n = geom.m, geom.blocks_per_side, geom.n
    row, col = zero_cell

    def checks(orientation, lines):
        return [Action(ActionKind.CHECK_ROW, index=k, orientation=orientation) for k in lines]

    return (Action(ActionKind.OP, init_op(Orientation.ROW, m + 1, frozenset(range(n))), True),
            *checks(Orientation.ROW, [1, 2, 3, 1, 0]),            # line 1 again
            *checks(Orientation.COLUMN, [nb - 1, 0]),             # switches orientation
            Action(ActionKind.BLOCK_RESET, block=(nb - 1, 2)),
            Action(ActionKind.OP, init_op(Orientation.ROW, col, frozenset({row}))),
            *checks(Orientation.ROW, [nb - 1, nb - 2, 0]),
            *checks(Orientation.COLUMN, [2, 0, 2]))


def issue_one_by_one(machine, actions) -> list[BlockReport]:
    """Oracle of ``run_actions``: every line check issued alone through
    ``check_block_row``; returns the checks' reports in order."""
    floor, reports = 0, []
    for action in actions:
        if action.kind is ActionKind.CHECK_ROW:
            line_reports, done = machine.check_block_row(action.index, action.orientation)
            reports += line_reports
            floor = max(floor, done)
        elif action.kind is ActionKind.BLOCK_RESET:
            machine.block_ecc_reset(*action.block, earliest=floor)
        elif action.critical:
            machine.critical_op(action.op, earliest=floor)
        else:
            machine.noncritical_op(action.op, earliest=floor)
    return reports


class TestCheckRuns:
    """``run_actions`` passes each maximal run of consecutive line checks of
    one orientation and distinct lines to one ``check_lines``, which takes
    the codec pass of a group of its lines before the group's first line.
    The run splits where a line comes again or the orientation changes, and
    any other action ends it, so a schedule equals its checks issued one
    at a time, with every line in one group or with two lines per group."""

    @pytest.mark.parametrize("geom", [Geometry(30, 3), Geometry(45, 5), Geometry(63, 7)])
    @pytest.mark.parametrize("case", ["single flips", "two flips in one block",
                                      "check-bit flips"])
    @pytest.mark.parametrize("lines_per_gather", ["all", 2])
    def test_runs_equal_their_lines_checked_one_by_one(self, geom, case, lines_per_gather,
                                                       monkeypatch):
        n, m, nb = geom.n, geom.m, geom.blocks_per_side
        if lines_per_gather == "all":
            assert checkmem.SWEEP_GATHER_BYTES >= nb * 2 * m * m * nb
        else:
            monkeypatch.setattr(checkmem, "SWEEP_GATHER_BYTES",
                                lines_per_gather * 2 * m * m * nb + 1)
        machine = random_consistent_machine(n * m, geom, pc_pairs=2)
        for kind, a, b, br, bc in sweep_faults(geom, case):
            if kind == "data":
                machine.inject_data_flip(br * m + a, bc * m + b)
            else:
                machine.inject_check_flip(a, b, br, bc)
        block = machine.state.cells[(nb - 2) * m:(nb - 1) * m, :m]
        i, j = np.argwhere(block == 0)[0]
        actions = check_run_actions(geom, ((nb - 2) * m + int(i), int(j)))
        lines = copy.deepcopy(machine)

        runs = []
        real = Machine.check_lines

        def spied(self, indices, orientation=Orientation.ROW, earliest=0):
            reports, done = real(self, indices, orientation, earliest)
            runs.append(reports)
            return reports, done

        monkeypatch.setattr(Machine, "check_lines", spied)
        run = run_actions(machine, actions)
        expected = issue_one_by_one(lines, actions)

        assert len(runs) == 6
        assert [report for reports in runs for report in reports] == expected
        assert run_stats(machine.events).corrected > 0
        assert np.array_equal(machine.state.cells, lines.state.cells)
        assert machine.checkmem == lines.checkmem
        assert machine.events == lines.events
        assert np.array_equal(machine._check_ready, lines._check_ready)
        assert run.total_cycles == machine.horizon == lines.horizon

    @pytest.mark.parametrize("bad", [-1, "nb"])
    def test_a_bad_line_in_a_run_changes_nothing(self, bad):
        geom = Geometry(45, 5)
        nb = geom.blocks_per_side
        bad = nb if bad == "nb" else bad
        machine = random_consistent_machine(7, geom)
        machine.inject_data_flip(2, 3)  # a flip in line 0, checked first
        before = copy.deepcopy(machine)
        checks = tuple(Action(ActionKind.CHECK_ROW, index=k) for k in (0, 1, bad, 2))
        for issue in (lambda: run_actions(machine, checks),
                      lambda: machine.check_lines([0, 1, bad, 2])):
            with pytest.raises(GeometryError, match=rf"block row index {bad} outside \[0,{nb}\)"):
                issue()
            assert machine.events == before.events == []
            assert np.array_equal(machine.state.cells, before.state.cells)
            assert machine.checkmem == before.checkmem
            assert np.array_equal(machine._check_ready, before._check_ready)

    def test_a_repeated_line_in_one_call_is_refused(self):
        machine = Machine.blank(G9)
        with pytest.raises(ValueError, match="repeats a line"):
            machine.check_lines([0, 2, 0])
        assert machine.events == []


class TestManyLines:
    """A geometry with many lines, 257 per orientation at 771/3: each sweep of
    a blank machine reports every block clean."""

    def test_two_sweeps_of_a_blank_machine_report_every_block_clean(self):
        geom = Geometry(771, 3)
        machine = Machine.blank(geom)
        for _ in range(2):
            reports = machine.full_memory_check()
            assert reports == [BlockReport(CLEAN)] * geom.blocks_per_side ** 2


def reset_by_init_ops(machine, block_row, block_col, earliest=0):
    """Oracle of ``block_ecc_reset``: one Init op per line of the block, then
    the all-ones check-bits written directly, once every write in flight to
    them has landed."""
    m, nb = machine.geom.m, machine.geom.blocks_per_side
    t0 = max(earliest, machine.timeline.next_free("MEM"))
    base_row, base_col = block_row * m, block_col * m
    lanes = frozenset(range(base_row, base_row + m))
    machine.log(t0, "SCHED", "block_reset", f"block={block_row},{block_col}")
    t = t0
    for lc in range(m):
        op = init_op(Orientation.ROW, base_col + lc, lanes)
        machine.timeline.reserve("MEM", t, 1)
        apply_op_inplace(machine.state.cells, op)
        machine.log(t, "MEM", "op", format_op(op) + " critical=0 reset=1")
        t += 1
    set_parity(machine.checkmem, block_row, block_col, BlockParity((1,) * m, (1,) * m))
    wb = machine.timing.writeback_cycles
    in_flight = machine._check_ready[:, :, block_col, block_row].max()
    t = max(t, machine.timeline.next_free("CTRL"), in_flight)
    units = [(b, d, f"CBX:{bank.value}:{d}")
             for b, bank in enumerate(Bank) for d in range(m)]

    def busy_at(unit, t):  # whether the write [t, t + wb) meets a busy window
        busy = crossbar_busy(machine.timeline, unit)
        return any(start < t + wb and t < end for start, end in zip(busy[::2], busy[1::2]))

    # step one cycle at a time until the write is idle on every crossbar; it
    # books each crossbar's own list, so any window of "CBX" it met would show
    # as a double booking in crossbar_busy
    while any(busy_at(unit, t) for _, _, unit in units):
        t += 1
    for b, d, unit in units:
        machine.timeline.book((unit,), t, ((0, wb),))
        bit = (b, d, block_col, block_row)
        machine._check_ready[bit] = max(machine._check_ready[bit], t + wb)
    machine.timeline.reserve("CTRL", t, wb)
    machine.log(t, "CTRL", "ecc_write", f"block={block_row},{block_col}", span=wb)
    return t + wb


class TestBlockResetOracle:
    GEOM = Geometry(45, 5)

    def _busy_machine(self, timing):
        """A machine whose MEM, CTRL and check-bit crossbars are all in use,
        every crossbar on the shared list and on its own: one-lane ops on
        every line offset and a corrected check-bit book the own lists."""
        machine = random_consistent_machine(4505, self.GEOM, timing=timing, pc_pairs=1)
        lanes = frozenset(range(45))
        machine.critical_op(init_op(Orientation.ROW, 12, lanes))
        machine.inject_data_flip(11, 3)
        machine.inject_check_flip(Bank.COUNTER, 1, 2, 4)
        machine.check_block_row(2)
        machine.critical_op(nor_op(Orientation.ROW, (3, 4), 12, lanes))
        for out in range(20, 25):
            machine.critical_op(init_op(Orientation.ROW, out, {7}))
        return machine

    @pytest.mark.parametrize("timing", [TimingModel(), TimingModel(writeback_cycles=3),
                                        TimingModel(writeback_cycles=5)])
    @pytest.mark.parametrize("block, earliest", [((2, 2), 0), ((0, 8), 0), ((8, 2), 40)])
    def test_matches_a_loop_of_init_ops(self, timing, block, earliest):
        machine = self._busy_machine(timing)
        oracle = copy.deepcopy(machine)
        done = machine.block_ecc_reset(*block, earliest=earliest)
        assert done == reset_by_init_ops(oracle, *block, earliest=earliest)
        assert machine.events == oracle.events
        assert np.array_equal(machine.state.cells, oracle.state.cells)
        assert machine.checkmem == oracle.checkmem
        assert np.array_equal(machine._check_ready, oracle._check_ready)
        assert busy_windows(machine) == busy_windows(oracle)

    def test_every_block_and_repeated_block_rows_match(self):
        # every block row by row, then block row 4 again and block (4, 2) twice
        nb = self.GEOM.blocks_per_side
        blocks = ([(br, bc) for br in range(nb) for bc in range(nb)]
                  + [(4, bc) for bc in range(nb)] + [(4, 2)])
        machine = self._busy_machine(TimingModel(writeback_cycles=2))
        oracle = copy.deepcopy(machine)
        for k, block in enumerate(blocks):
            earliest = 7 * k if k % 3 == 0 else 0
            assert (machine.block_ecc_reset(*block, earliest=earliest)
                    == reset_by_init_ops(oracle, *block, earliest=earliest))
        assert machine.events == oracle.events
        assert np.array_equal(machine.state.cells, oracle.state.cells)
        assert machine.checkmem == oracle.checkmem
        assert np.array_equal(machine._check_ready, oracle._check_ready)
        assert busy_windows(machine) == busy_windows(oracle)

    @pytest.mark.parametrize("block", [(9, 0), (0, 9), (-1, 0)])
    def test_block_outside_the_crossbar_rejected(self, block):
        machine = Machine.blank(self.GEOM)
        with pytest.raises(GeometryError):
            machine.block_ecc_reset(*block)
        assert machine.events == []


# ----------------------------------------------------------------------
# the same-cell hazard: no check-bit is read before its last write lands

def hazard_program(seed, geom):
    """Random timing steps in 1-11 and a program of 8-20 (kind, args,
    earliest) steps: critical ops (one-lane or full-lane, both orientations,
    an Init alone or followed by a NOR), block resets, and line checks after
    1-3 check-bit flips, whose corrections keep CTRL busy. Half the lines
    and blocks fall in the first two block rows and columns, so steps
    collide. Drawn from a seed, not by Hypothesis: its examples repeat
    values, and the hazards need steps, blocks and timing to line up."""
    rng = np.random.default_rng(seed)
    n, m, nb = geom.n, geom.m, geom.blocks_per_side
    timing = TimingModel(*rng.integers(1, 12, 6).tolist())

    def pick(hot, size):
        return int(rng.integers(hot if rng.random() < 0.5 else size))

    def check_flip():  # of a check-bit of block k of the checked line
        bank, diag = tuple(Bank)[rng.integers(2)], int(rng.integers(m))
        return "check", pick(2, nb), bank, diag

    steps = []
    for _ in range(rng.integers(8, 21)):
        kind = ("op", "reset", "check")[rng.integers(3)]
        orientation = tuple(Orientation)[rng.integers(2)]
        if kind == "op":
            lanes = (frozenset(range(n)) if rng.random() < 0.5
                     else frozenset({pick(2 * m, n)}))
            args = (orientation, pick(2 * m, n), lanes, bool(rng.integers(2)))
        elif kind == "reset":
            args = (pick(2, nb), pick(2, nb))
        else:
            args = (orientation, pick(2, nb), [check_flip() for _ in range(rng.integers(1, 4))])
        steps.append((kind, args, 0 if rng.random() < 0.5 else int(rng.integers(41))))
    return timing, steps


def run_program(machine, steps) -> None:
    """Run the (kind, args, earliest) steps of :func:`hazard_program` or
    :func:`crossbar_programs` on the machine."""
    geom, m = machine.geom, machine.geom.m
    for kind, args, earliest in steps:
        if kind == "op":
            orientation, out, lanes, nor = args
            machine.critical_op(init_op(orientation, out, lanes), earliest)
            if nor:
                ins = ((out + 1) % geom.n, (out + 2) % geom.n)
                machine.critical_op(nor_op(orientation, ins, out, lanes), earliest)
        elif kind == "reset":
            machine.block_ecc_reset(*args, earliest=earliest)
        else:
            orientation, index, flips = args
            # ("data", k, i, j) flips cell (i, j) of block k of the line,
            # ("check", k, bank, diag) one of its check-bits
            for flip, k, a, b in flips:
                br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
                if flip == "data":
                    machine.inject_data_flip(br * m + a, bc * m + b)
                else:
                    machine.inject_check_flip(a, b, br, bc)
            machine.check_block_row(index, orientation, earliest)


def reads_before_writes(machine):
    """(bit, cycle, end) of every access to a check-bit that starts before
    the end of the last logged write of that bit, and of every write that
    starts before the end of the last logged read of it. The reads are a
    critical op's ``load_check`` and a line check's ``syndrome_xor3``, which
    reads the stored bits of every block of its line for ``copy_cycles``;
    the writes are ``writeback``, ``ecc_write`` and ``correct_check``, and
    each must also start once the write before it has ended. Bits are named
    as in the event log, e.g. ``L2@1,0``."""
    m, nb = machine.geom.m, machine.geom.blocks_per_side
    c = machine.timing.copy_cycles

    def block_bits(block):
        return [f"{tag}{d}@{block}" for tag in "LC" for d in range(m)]

    written, read, early, line = {}, {}, [], []
    for ev in machine.events:
        if ev.action == "check_row":  # its syndrome_xor3 follows
            fields = dict(field.split("=") for field in ev.operands.split())
            index = int(fields["index"])
            line = [bit for k in range(nb) for bit in block_bits(
                f"{index},{k}" if fields["orient"] == "row" else f"{k},{index}")]
            continue
        if ev.action == "syndrome_xor3":
            bits, write = line, False
        elif ev.action == "ecc_write":
            bits, write = block_bits(ev.operands.removeprefix("block=")), True
        elif ev.action == "correct_check":  # unit CBX:<bank>:<diag>
            _, bank, diag = ev.unit.split(":")
            block = ev.operands.split()[0].removeprefix("block=")
            bits, write = [f"{bank[0].upper()}{diag}@{block}"], True
        elif ev.action in ("load_check", "writeback"):
            bits, write = ev.operands.removeprefix("cells=").split(";"), ev.action == "writeback"
        else:
            continue
        early += [(bit, ev.cycle, written[bit]) for bit in bits
                  if written.get(bit, 0) > ev.cycle]
        if write:
            early += [(bit, ev.cycle, read[bit]) for bit in bits if read.get(bit, 0) > ev.cycle]
            written.update(dict.fromkeys(bits, ev.end))
        else:
            end = ev.cycle + c
            read.update((bit, max(read.get(bit, 0), end)) for bit in bits)
    return early


class TestSameCellHazard:
    @settings(max_examples=100, deadline=None)
    @given(geom=st.sampled_from([Geometry(30, 3), Geometry(45, 5)]),
           pc_pairs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_no_check_bit_is_read_before_its_last_write_ends(self, geom, pc_pairs, seed):
        # reads_before_writes also reports every write before a pending read
        timing, steps = hazard_program(seed, geom)
        machine = random_consistent_machine(seed, geom, timing=timing, pc_pairs=pc_pairs)
        run_program(machine, steps)
        assert reads_before_writes(machine) == []

    @pytest.mark.parametrize("in_flight", [None, 10_000])
    def test_a_correction_makes_its_bit_ready_no_earlier_than_before(self, in_flight):
        # check-bit L1 of block (0, 2) is flipped and corrected by a check of
        # block row 0; a writeback may still be in flight to it. The check's
        # read of the line's stored bits ends copy_cycles after its
        # syndrome_xor3 starts: every other bit of the line is ready then
        geom = Geometry(30, 3)
        nb = geom.blocks_per_side
        machine = Machine.blank(geom)
        machine.inject_check_flip(Bank.LEADING, 1, 0, 2)
        bit = (tuple(Bank).index(Bank.LEADING), 1, 2, 0)  # [bank, diag, block_col, block_row]
        if in_flight is not None:
            machine._check_ready[bit] = in_flight
        machine.check_block_row(0)
        (fix,) = [ev for ev in machine.events if ev.action == "correct_check"]
        assert (fix.unit, fix.operands) == ("CBX:leading:1", "block=0,2 diag=1")
        (read,) = [ev for ev in machine.events if ev.action == "syndrome_xor3"]
        assert machine._check_ready[bit] == max(fix.end, in_flight or 0)
        line = np.ravel_multi_index(np.indices((2, geom.m, nb)), (2, geom.m, nb)) * nb
        expected = dict.fromkeys(line.ravel().tolist(), read.cycle + machine.timing.copy_cycles)
        expected[np.ravel_multi_index(bit, (2, geom.m, nb, nb))] = max(fix.end, in_flight or 0)
        assert ready_cycles(machine) == expected
        assert consistent(machine)

    @pytest.mark.parametrize("step", [
        "critical_op", "noncritical_op", "block_ecc_reset", "check_block_row",
        "critical_nor_one_lane", "critical_nor_every_lane",
        "noncritical_nor_one_lane", "noncritical_nor_every_lane"])
    def test_a_step_that_raises_changes_nothing(self, step):
        # check-bit readiness is int32: a step that would end at or past
        # cycle 2**31 raises before it books, logs or writes anything; so
        # does a NOR whose output is not preset (only cell (3, 0) is)
        machine = Machine.blank(Geometry(30, 3))
        machine.critical_op(init_op(Orientation.ROW, 0, {3}))
        machine.inject_check_flip(Bank.LEADING, 1, 0, 2)  # block (0, 2)

        def snapshot():
            return (list(machine.events), copy.deepcopy(machine.timeline._windows),
                    machine.state.cells.copy(), machine.checkmem.planes.copy(),
                    machine._check_ready.copy())

        before = snapshot()
        if "nor" in step:
            lanes = {4} if step.endswith("one_lane") else range(30)
            run = getattr(machine, step.split("_nor")[0] + "_op")
            with pytest.raises(UninitializedOutputError, match="non-preset"):
                run(nor_op(Orientation.ROW, (1, 2), 0, frozenset(lanes)))
        else:
            with pytest.raises(OverflowError, match="would end at cycle"):
                if step == "critical_op":
                    machine.critical_op(init_op(Orientation.ROW, 0, {3}), earliest=2**31)
                elif step == "noncritical_op":  # it ends at 2**31 + 1
                    machine.noncritical_op(init_op(Orientation.ROW, 5, {0}), earliest=2**31)
                elif step == "block_ecc_reset":
                    machine.block_ecc_reset(1, 0, earliest=2**31)
                else:  # its compare ends at 2**31, its correction of (0, 2) later
                    machine.check_block_row(0, earliest=2**31 - 20)
        after = snapshot()
        assert after[:2] == before[:2]
        assert all(np.array_equal(a, b) for a, b in zip(after[2:], before[2:]))

    def test_a_block_reset_makes_its_bits_ready_no_earlier_than_before(self):
        # the op folds cell (3, 0) into L0 and C0 of block (1, 0), keys 1 and
        # 301, with its writeback from cycle 11 to 12; the reset writes all
        # six of the block's bits after it, from cycle 12 to 13, not from 6
        machine = Machine.blank(Geometry(30, 3))
        machine.critical_op(init_op(Orientation.ROW, 0, {3}))
        assert ready_cycles(machine) == {1: 12, 301: 12}
        assert machine.block_ecc_reset(1, 0) == 13
        assert [(ev.action, ev.cycle, ev.end) for ev in machine.events
                if ev.action in ("writeback", "ecc_write")] == [
            ("writeback", 11, 12), ("ecc_write", 12, 13)]
        assert ready_cycles(machine) == dict.fromkeys([1, 101, 201, 301, 401, 501], 13)
        assert reads_before_writes(machine) == []
        assert consistent(machine)

    def test_a_critical_op_writes_back_after_a_line_check_reads_its_bits(self):
        # the check of block row 0 copies the line at 0..5 and reads its stored
        # bits at 21; the op on block (0, 0) must not write back to C1 and L3
        # of that block before the read has ended
        machine = Machine.blank(Geometry(45, 5))
        machine.check_block_row(0)
        assert machine.critical_op(init_op(Orientation.ROW, 1, {2})) == 21
        logged = {ev.action: ev for ev in machine.events}
        read, back = logged["syndrome_xor3"], logged["writeback"]
        assert (read.cycle, back.operands) == (21, "cells=C1@0,0;L3@0,0")
        assert back.cycle >= read.cycle + machine.timing.copy_cycles
        assert logged["stall"].operands == "op_out=1 wait=16"
        assert reads_before_writes(machine) == []
        assert consistent(machine)

    @settings(max_examples=60, deadline=None)
    @given(geom=st.sampled_from([Geometry(30, 3), Geometry(45, 5), Geometry(63, 7)]),
           copy_cycles=st.integers(1, 11), xor3_cycles=st.integers(1, 11),
           check=st.sampled_from(list(Orientation)), op=st.sampled_from(list(Orientation)),
           full=st.booleans(), data=st.data())
    def test_an_op_issued_after_a_line_check_writes_back_after_its_read(
            self, geom, copy_cycles, xor3_cycles, check, op, full, data):
        # the op writes a cell of diagonal block (index, index), which every
        # check of line index reads; as soon as the check releases MEM, the op
        # would write back before the read at m >= 5 when xor3 > copy + 1
        m, nb = geom.m, geom.blocks_per_side
        index = data.draw(st.integers(0, nb - 1))
        line, lane = (index * m + data.draw(st.integers(0, m - 1)) for _ in range(2))
        machine = Machine.blank(geom, timing=TimingModel(xor3_cycles=xor3_cycles,
                                                         copy_cycles=copy_cycles))
        machine.check_block_row(index, check)
        machine.critical_op(init_op(op, line, range(geom.n) if full else {lane}))
        logged = {ev.action: ev for ev in machine.events}
        assert logged["writeback"].cycle >= logged["syndrome_xor3"].cycle + copy_cycles
        assert reads_before_writes(machine) == []

    def test_a_line_check_reads_its_stored_bits_after_a_pending_reset(self):
        # the corrections of block row 0 keep CTRL busy until cycle 104, so the
        # reset of block (1, 5) writes its check-bits from 104 to 105; the
        # check of block row 1 reads them at 105, not at 17
        machine = Machine.blank(Geometry(30, 3),
                                timing=TimingModel(controller_read_cycles=20))
        for bc in range(4):
            machine.inject_check_flip(Bank.LEADING, 0, 0, bc)
        machine.check_block_row(0)
        assert machine.block_ecc_reset(1, 5) == 105
        logged = len(machine.events)
        reports, done = machine.check_block_row(1)
        (read,) = [ev for ev in machine.events[logged:] if ev.action == "syndrome_xor3"]
        assert read.cycle == 105 and done == read.end + 1
        assert {r.diagnosis.kind for r in reports} == {DiagnosisKind.CLEAN}
        assert reads_before_writes(machine) == []
        assert consistent(machine)


# ----------------------------------------------------------------------
# the interval timeline against the per-cycle model

class BusySets:
    """Oracle of :class:`UnitTimeline`: one set of busy cycles per unit,
    searched one cycle at a time."""

    def __init__(self):
        self.busy: dict[str, set[int]] = {}

    def next_free(self, unit):
        return max(self.busy.get(unit) or {-1}) + 1

    def reserve(self, unit, start, span):
        if start < self.next_free(unit):
            raise RuntimeError(f"unit {unit} reserved at {start} before its free "
                               f"cycle {self.next_free(unit)}")
        self.book((unit,), start, ((0, span),))

    def book(self, units, t, windows):
        for unit in units:
            busy = self.busy.setdefault(unit, set())
            for offset, span in windows:
                cycles = range(t + offset, t + offset + span)
                clash = busy.intersection(cycles)
                if clash:
                    raise RuntimeError(f"unit {unit} double-booked at cycle {min(clash)}")
                busy.update(cycles)

    def first_free(self, units, start, windows):
        t = start
        while any(c in self.busy.get(unit, ()) for unit in units
                  for offset, span in windows for c in range(t + offset, t + offset + span)):
            t += 1
        return t


def outcome(call, *args):
    try:
        return call(*args)
    except RuntimeError as exc:
        return str(exc)


class TestTimelineOracle:
    UNITS = ("MEM", "PC0", "CBX:leading:0")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_reserve_book_and_first_free_match_busy_sets(self, data):
        timeline, oracle = UnitTimeline(), BusySets()
        spans = st.integers(1, 4)
        for _ in range(data.draw(st.integers(1, 30))):
            action = data.draw(st.sampled_from(["reserve", "book", "first_free"]))
            if action == "first_free":
                units = data.draw(st.lists(st.sampled_from(self.UNITS), unique=True))
                windows = data.draw(st.lists(st.tuples(st.integers(0, 8), spans),
                                             min_size=1, max_size=3))
                start = data.draw(st.integers(0, 40))
                assert (timeline.first_free(units, start, windows)
                        == oracle.first_free(units, start, windows))
                continue
            if action == "reserve":  # at, just before or just after the free cycle
                unit, span = data.draw(st.sampled_from(self.UNITS)), data.draw(spans)
                args = (unit, oracle.next_free(unit) + data.draw(st.integers(-2, 2)), span)
            else:  # anywhere, so gaps, edges and overlaps all occur
                args = (data.draw(st.lists(st.sampled_from(self.UNITS), min_size=1,
                                           max_size=3, unique=True)),
                        data.draw(st.integers(0, 40)),
                        data.draw(st.lists(st.tuples(st.integers(0, 8), spans),
                                           min_size=1, max_size=2)))
            assert (outcome(getattr(timeline, action), *args)
                    == outcome(getattr(oracle, action), *args))
            for name in self.UNITS:
                windows = timeline._windows.get(name, [])
                # sorted, disjoint, non-empty, touching windows merged
                assert all(a < b for a, b in zip(windows, windows[1:]))
                assert {c for s, e in zip(windows[::2], windows[1::2])
                        for c in range(s, e)} == oracle.busy.get(name, set())
                assert timeline.next_free(name) == oracle.next_free(name)

    def test_both_guards_raise(self):
        timeline = UnitTimeline()
        timeline.reserve("MEM", 2, 3)
        with pytest.raises(RuntimeError, match="MEM reserved at 4 before its free cycle 5"):
            timeline.reserve("MEM", 4, 1)
        cbx = ("CBX:leading:0",)
        timeline.book(cbx, 1, ((4, 2), (0, 2)))
        with pytest.raises(RuntimeError, match="double-booked at cycle 5"):
            timeline.book(cbx, 3, ((0, 4),))
        with pytest.raises(RuntimeError, match="double-booked at cycle 2"):
            timeline.book(cbx, 0, ((2, 1),))
        assert timeline._windows == {"MEM": [2, 5], "CBX:leading:0": [1, 3, 5, 7]}

    def test_one_book_fills_a_gap_then_merges_and_appends_at_the_tail(self):
        timeline = UnitTimeline()
        cbx = ("CBX:leading:0", "CBX:counter:1")
        timeline.book(cbx, 0, ((0, 2), (5, 3)))
        # [2, 3) fills the gap after [0, 2); [8, 10) merges with [5, 8) at the
        # tail; [12, 13) is appended after it
        timeline.book(cbx, 2, ((0, 1), (6, 2), (10, 1)))
        assert timeline._windows == dict.fromkeys(cbx, [0, 3, 5, 10, 12, 13])
        assert timeline.first_free(cbx, 0, ((0, 2),)) == 3
        with pytest.raises(RuntimeError, match="double-booked at cycle 12"):
            timeline.book(cbx[:1], 11, ((0, 2),))


# ----------------------------------------------------------------------
# the shared "CBX" unit against one timeline per check-bit crossbar

class PerCrossbarBusySets(BusySets):
    """:class:`BusySets` with one set per check-bit crossbar and no shared
    unit: a window booked on ``"CBX"`` is booked on every crossbar, and
    ``"CBX"`` is never searched."""

    def __init__(self, crossbars):
        super().__init__()
        self.crossbars = crossbars

    def book(self, units, t, windows):
        super().book(self.crossbars if tuple(units) == ("CBX",) else units, t, windows)

    def first_free(self, units, start, windows):
        return super().first_free([unit for unit in units if unit != "CBX"], start, windows)


@st.composite
def crossbar_programs(draw):
    """A geometry, a timing, a pair count and 1-12 steps (kind, args,
    earliest): one-lane and every-lane critical ops in both orientations,
    each an Init alone or followed by a NOR; block resets; and line checks,
    clean or after 1-3 data or check-bit flips on their line, so that the
    corrections write cells and single check-bits."""
    geom = draw(st.sampled_from([Geometry(30, 3), Geometry(45, 5)]))
    n, m, nb = geom.n, geom.m, geom.blocks_per_side
    timing = TimingModel(*(draw(st.integers(1, 6)) for _ in range(6)))
    block, offset = st.integers(0, nb - 1), st.integers(0, m - 1)
    orientation = st.sampled_from(list(Orientation))
    op = st.tuples(st.just("op"), st.tuples(
        orientation, st.integers(0, n - 1),
        st.one_of(st.integers(0, n - 1).map(lambda lane: frozenset({lane})),
                  st.just(frozenset(range(n)))),
        st.booleans()))
    reset = st.tuples(st.just("reset"), st.tuples(block, block))
    flip = st.one_of(st.tuples(st.just("data"), block, offset, offset),
                     st.tuples(st.just("check"), block, st.sampled_from(list(Bank)), offset))
    check = st.tuples(st.just("check"), st.tuples(
        orientation, block, st.one_of(st.just([]), st.lists(flip, min_size=1, max_size=3))))
    steps = st.lists(st.tuples(st.one_of(op, reset, check), st.sampled_from([0, 0, 7, 40])),
                     min_size=1, max_size=12)
    return geom, timing, draw(st.integers(1, 4)), [(k, a, e) for (k, a), e in draw(steps)]


class TestSharedCrossbarTimeline:
    """A window that every check-bit crossbar takes is booked once, on the
    shared unit ``"CBX"``, and each crossbar's busy cycles are those of
    ``"CBX"`` and of its own list. A machine whose timeline keeps one busy
    set per crossbar, without the shared unit, runs the same program."""

    @settings(max_examples=80, deadline=None)
    @given(case=crossbar_programs())
    def test_each_crossbar_is_busy_as_in_a_per_crossbar_replay(self, case):
        geom, timing, pc_pairs, steps = case
        machine = Machine.blank(geom, timing=timing, pc_pairs=pc_pairs)
        replay = Machine.blank(geom, timing=timing, pc_pairs=pc_pairs)
        replay.timeline = PerCrossbarBusySets(replay._cbx_units)
        run_program(machine, steps)
        run_program(replay, steps)
        assert machine.events == replay.events
        assert np.array_equal(machine.state.cells, replay.state.cells)
        assert machine.checkmem == replay.checkmem
        for unit in machine._cbx_units:
            busy = crossbar_busy(machine.timeline, unit)
            assert ({c for s, e in zip(busy[::2], busy[1::2]) for c in range(s, e)}
                    == replay.timeline.busy.get(unit, set()))
        for unit in ("MEM", "CTRL", "CHECK", *machine._pc_units):
            assert machine.timeline.next_free(unit) == replay.timeline.next_free(unit)

    def test_a_step_on_every_crossbar_books_the_shared_unit_only(self):
        # a line check, a block reset and an every-lane critical op take all
        # 2m crossbars; a one-lane op and a correct_check take their own
        machine = Machine.blank(Geometry(30, 3))
        machine.check_block_row(0)
        machine.block_ecc_reset(1, 1)
        machine.critical_op(init_op(Orientation.ROW, 7, range(30)))
        assert {unit for unit, busy in machine.timeline._windows.items()
                if unit.startswith("CBX") and busy} == {"CBX"}
        machine.critical_op(init_op(Orientation.ROW, 0, {3}))  # L0 and C0 of block (1, 0)
        machine.inject_check_flip(Bank.COUNTER, 2, 2, 0)
        machine.check_block_row(2)
        assert {unit for unit, busy in machine.timeline._windows.items()
                if unit.startswith("CBX") and busy} == {
            "CBX", "CBX:leading:0", "CBX:counter:0", "CBX:counter:2"}


# ----------------------------------------------------------------------
# a clean sweep's timing as a formula

def sweep_issue_cycles(m: int, nb: int, k: int, tm: TimingModel) -> tuple[list[int], int]:
    """Issue cycle of each line of a clean sweep of a blank machine with k
    pairs, and the sweep's horizon, by the max-plus recurrence
    ``t_i = max(t_{i-1} + max(m c, zc), t_{i-k} + syn + x)`` with ``t_0 = 0``
    and ``syn = m c + xor3_tree_levels(m) x``: MEM holds a line's m copies,
    the checking crossbar each line's zero compare, and a pair each line
    until its syndrome XOR3 ends. The horizon is ``t_{nb-1} + syn + x + zc``."""
    c, x, zc = tm.copy_cycles, tm.xor3_cycles, tm.zero_compare_cycles
    syn = m * c + xor3_tree_levels(m) * x
    t = [0]
    for i in range(1, nb):
        t.append(max(t[i - 1] + max(m * c, zc), t[i - k] + syn + x if i >= k else 0))
    return t, t[-1] + syn + x + zc


class TestSweepOracle:
    @settings(max_examples=100, deadline=None)
    @given(geom=st.sampled_from([Geometry(9, 3), Geometry(45, 5), Geometry(63, 7)]),
           orientation=st.sampled_from(list(Orientation)), pc_pairs=st.integers(1, 8),
           steps=st.lists(st.integers(1, 16), min_size=6, max_size=6))
    def test_a_clean_sweep_issues_by_the_recurrence(self, geom, orientation, pc_pairs, steps):
        timing = TimingModel(*steps)
        machine = Machine.blank(geom, timing=timing, pc_pairs=pc_pairs)
        reports = machine.full_memory_check(orientation)
        issued, horizon = sweep_issue_cycles(geom.m, geom.blocks_per_side, pc_pairs, timing)
        assert reports == [BlockReport(CLEAN)] * geom.blocks_per_side ** 2
        assert [ev.cycle for ev in machine.events if ev.action == "check_row"] == issued
        assert machine.horizon == horizon

    @pytest.mark.parametrize("pc_pairs, horizon", [(3, 1097), (4, 1053), (8, 1053)])
    def test_the_default_geometry_is_bound_by_the_pairs_then_by_mem(self, pc_pairs, horizon):
        # 68 lines at 1020/15: k = 3 pairs bind at 1,097 cycles; from k = 4 on
        # MEM binds, 67 * 15 + syn + x + zc = 1,053
        assert sweep_issue_cycles(15, 68, pc_pairs, TimingModel())[1] == horizon


# ----------------------------------------------------------------------
# every two-flip pattern of one block

def two_flip_patterns(m: int):
    """Every pair of distinct bits of one m x m block: its data cells
    ``("data", i, j)`` and its check-bits ``(bank, diagonal)``."""
    bits = ([("data", i, j) for i in range(m) for j in range(m)]
            + [(bank, d) for bank in Bank for d in range(m)])
    return itertools.combinations(bits, 2)


def expected_two_flip_kind(pair, m: int) -> DiagnosisKind:
    """What the code makes of two flips in one block: a leading and a
    counter check-bit read as the data flip where their diagonals cross, a
    data flip and a check-bit on one of its diagonals as a flip of its other
    check-bit, and any other pair is detected."""
    (a, *x), (b, *y) = pair
    if (a, b) == (Bank.LEADING, Bank.COUNTER):
        return DiagnosisKind.DATA_ERROR
    if a == "data" and isinstance(b, Bank):
        i, j = x
        if (b, *y) in ((Bank.LEADING, (i + j) % m), (Bank.COUNTER, (i - j) % m)):
            return DiagnosisKind.CHECK_BIT_ERROR
    return DiagnosisKind.UNCORRECTABLE


TWO_FLIP_TABLE = {  # m -> (detected, decoded as a check-bit error, miscorrected as data)
    3: (78, 18, 9),
    5: (520, 50, 25),
    15: (31_710, 450, 225),
}


def tally(kinds) -> tuple[int, int, int]:
    kinds = list(kinds)
    return tuple(kinds.count(kind) for kind in (
        DiagnosisKind.UNCORRECTABLE, DiagnosisKind.CHECK_BIT_ERROR, DiagnosisKind.DATA_ERROR))


class TestTwoFlipTable:
    """The codec's two-flip table (data and check-bits of one block): every
    pattern is detected, decoded as a check-bit error or miscorrected as a
    data error, as :func:`expected_two_flip_kind` says."""

    @pytest.mark.parametrize("m", [3, 5])
    def test_through_a_line_check(self, m):
        kinds = []
        for pair in two_flip_patterns(m):
            machine = Machine.blank(Geometry(m, m))
            for bit in pair:
                if bit[0] == "data":
                    machine.inject_data_flip(*bit[1:])
                else:
                    machine.inject_check_flip(*bit, 0, 0)
            (report,), _ = machine.check_block_row(0)
            assert report.diagnosis.kind is expected_two_flip_kind(pair, m), pair
            kinds.append(report.diagnosis.kind)
        assert tally(kinds) == TWO_FLIP_TABLE[m]

    def test_through_the_scalar_codec_at_m15(self):
        m = 15
        zero = np.zeros((m, m), dtype=np.uint8)
        kinds = []
        for pair in two_flip_patterns(m):
            block, stored = zero.copy(), {bank: [0] * m for bank in Bank}
            for bit in pair:
                if bit[0] == "data":
                    block[bit[1:]] ^= 1
                else:
                    stored[bit[0]][bit[1]] ^= 1
            syndrome = compute_syndrome(encode_block(block), BlockParity(
                tuple(stored[Bank.LEADING]), tuple(stored[Bank.COUNTER])))
            kind = decode_syndrome(syndrome).kind
            assert kind is expected_two_flip_kind(pair, m), pair
            kinds.append(kind)
        assert tally(kinds) == TWO_FLIP_TABLE[m]
