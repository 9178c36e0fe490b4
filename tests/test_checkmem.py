"""Check Memory model: check-bit layout, pipelines, block checks, device counts."""

import copy
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    touched_check_cells,
    written_cells,
    xor3_tree_levels,
)
from xbarecc.engine import (
    CrossbarState,
    EngineConfig,
    Orientation,
    apply_op_inplace,
    execute,
    format_op,
    init_op,
    nor_op,
)
from xbarecc.geometry import Bank, Geometry, GeometryError
from xbarecc.parity import (
    BlockParity,
    DiagnosisKind,
    Syndrome,
    apply_correction,
    decode_syndrome,
    diag_parity,
    encode_block,
    update_parity,
)

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


def set_parity(cm, block_row, block_col, parity) -> None:
    cm.planes[:, :, block_col, block_row] = (parity.leading, parity.counter)


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
                parity = encode_block(machine.state.block(br, bc))
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
        machine = machine9()
        before = machine.checkmem.copy()
        # writing 0 over 0 cancels exactly
        from xbarecc.engine import MicroOp, OpKind
        op = MicroOp(OpKind.WRITE, Orientation.ROW, (), 4, frozenset({0, 1, 2}), value=0)
        machine.critical_op(op)
        assert machine.checkmem == before
        assert consistent(machine)

    def test_single_pair_serializes_on_writeback(self):
        machine = machine9(pc_pairs=1)
        assert machine.critical_op(init_op(Orientation.ROW, 0, {0})) == 0
        # after the first writeback frees the pair
        assert machine.critical_op(init_op(Orientation.ROW, 4, {3})) == 12
        assert run_stats(machine.events) == (12 - 3, [0])

    def test_four_pairs_reach_steady_state_every_three_cycles(self):
        machine = machine9(pc_pairs=4)
        issues = []
        for k in range(8):
            # distinct blocks and diagonals: no hazards, only unit contention
            out = (3 * k) % 9
            lane = 3 * ((k // 3) % 3)
            issues.append(machine.critical_op(init_op(Orientation.ROW, out, {lane})))
        assert issues == [3 * k for k in range(8)]
        assert run_stats(machine.events) == (0, [0, 1, 2, 3])

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
        cfg = EngineConfig(require_output_init=False)
        machine.engine_cfg = cfg
        for _ in range(40):
            out = int(rng.integers(0, 9))
            ins = tuple({int(x) for x in rng.integers(0, 9, 2)} - {out}) or ((out + 1) % 9,)
            lanes = frozenset(int(x) for x in rng.integers(0, 9, rng.integers(1, 4)))
            orientation = Orientation.ROW if rng.integers(0, 2) else Orientation.COLUMN
            op = nor_op(orientation, ins, out, lanes)
            machine.critical_op(op)
            shadow = execute(shadow, op, cfg)
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
    an orientation, a written line, an Init or a NOR, and a memory seed."""
    geom = draw(st.sampled_from([Geometry(30, 3), Geometry(45, 5), Geometry(63, 7)]))
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
        expected = machine.checkmem.copy()
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
        booked = {unit for unit, busy in machine.timeline._windows.items()
                  if unit.startswith("CBX:") and busy}
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
    def test_clean_memory_all_clean(self):
        machine = random_consistent_machine(1)
        reports, done = machine.check_block_row(0)
        assert all(r.diagnosis.kind is DiagnosisKind.CLEAN for r in reports)
        assert len(reports) == 3
        assert done == check_chain_cycles(3, machine.timing)

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
                dirty = [r for r in reports
                         if r.diagnosis.kind is not DiagnosisKind.CLEAN]
                assert len(dirty) == 1
                rep = dirty[0]
                assert (rep.block_row, rep.block_col) == (row // 3, col // 3)
                assert rep.diagnosis.kind is DiagnosisKind.DATA_ERROR
                assert (rep.diagnosis.i, rep.diagnosis.j) == (row % 3, col % 3)
                assert np.array_equal(machine.state.cells, golden)
                assert consistent(machine)

    def test_column_orientation(self):
        machine = random_consistent_machine(8)
        golden = machine.state.cells.copy()
        machine.inject_data_flip(7, 2)
        reports, _ = machine.check_block_row(0, Orientation.COLUMN)
        assert [r.block_col for r in reports] == [0, 0, 0]
        dirty = [r for r in reports if r.diagnosis.kind is not DiagnosisKind.CLEAN]
        assert dirty and dirty[0].block_row == 2
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

    def test_mem_freed_after_copies(self):
        machine = machine9()
        machine.check_block_row(0)
        assert machine.timeline.next_free("MEM") == 3  # m copy cycles only
        t = machine.noncritical_op(init_op(Orientation.ROW, 0, {0}))
        assert t == 3


class TestFullMemoryCheck:
    def test_clean(self):
        machine = random_consistent_machine(2)
        summary = machine.full_memory_check()
        assert summary.corrected == 0 and summary.uncorrectable == 0
        assert summary.clean == 9

    def test_five_flips_in_five_blocks(self):
        machine = random_consistent_machine(3)
        golden = machine.state.cells.copy()
        for k, (row, col) in enumerate([(0, 0), (0, 3), (4, 4), (8, 2), (5, 8)]):
            machine.inject_data_flip(row, col)
        summary = machine.full_memory_check()
        assert summary.corrected == 5
        assert summary.uncorrectable == 0
        assert np.array_equal(machine.state.cells, golden)

    def test_two_flips_one_block_uncorrectable(self):
        machine = random_consistent_machine(4)
        machine.inject_data_flip(4, 4)
        machine.inject_data_flip(5, 3)
        summary = machine.full_memory_check()
        assert summary.uncorrectable == 1

    def test_a_row_check_reports_every_block_row_major(self):
        # injection_campaign finds block (br, bc) at reports[br * nb + bc]
        summary = random_consistent_machine(5).full_memory_check()
        assert [(r.block_row, r.block_col) for r in summary.reports] == [
            (br, bc) for br in range(3) for bc in range(3)]

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
        summary = machine.full_memory_check()
        assert summary.corrected == len(by_block)
        assert summary.uncorrectable == 0
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
                  Event(11, "PC2", "xor3_tree", "vectors=3 levels=1", 8)]
        assert run_stats(events) == (6, [0, 2])
        assert run_stats([]) == (0, [])

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
        oracle = {(br, bc): encode_block(machine.state.block(br, bc))
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
        assert run_stats(machine.events)[0] > 0

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
        summary = machine.full_memory_check(orientation)
        reports = [(r.block_row, r.block_col, r.diagnosis.kind.value, r.diagnosis.i,
                    r.diagnosis.j, r.diagnosis.bank and r.diagnosis.bank.value,
                    r.diagnosis.idx) for r in summary.reports]
        events = "\n".join(ev.to_line() for ev in machine.events)
        planes = machine.checkmem.planes.tobytes()
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            repr(reports).encode(), events.encode(),
            machine.state.cells.tobytes(), planes))
        return summary, digests

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_every_diagnosis_kind_is_reported(self, orientation):
        summary, _ = self._run(orientation)
        dirty = {(r.block_row, r.block_col): r.diagnosis.kind
                 for r in summary.reports
                 if r.diagnosis.kind is not DiagnosisKind.CLEAN}
        assert dirty == {
            (0, 0): DiagnosisKind.DATA_ERROR,
            (4, 8): DiagnosisKind.DATA_ERROR,
            (2, 5): DiagnosisKind.CHECK_BIT_ERROR,
            (8, 1): DiagnosisKind.CHECK_BIT_ERROR,
            (6, 6): DiagnosisKind.UNCORRECTABLE,
            (7, 3): DiagnosisKind.DATA_ERROR,
        }
        assert (summary.clean, summary.corrected, summary.uncorrectable) == (75, 5, 1)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_reports_events_cells_and_planes_match_pinned_digests(self, orientation):
        _, digests = self._run(orientation)
        assert digests == self.DIGESTS[orientation]


# ----------------------------------------------------------------------
# the line check and the block reset against scalar oracles

def oracle_line_check(machine, index, orientation):
    """Expected result of ``check_block_row`` from the scalar codec.

    Each block of the line is re-encoded and compared with its stored
    check-bits, then decoded and corrected on copies. Returns the reports,
    the final cells and check-bits, and the (unit, action, operands) of
    every record logged after the check's fixed prologue.
    """
    geom = machine.geom
    m, nb = geom.m, geom.blocks_per_side
    cells = machine.state.cells.copy()
    cm = machine.checkmem.copy()
    reports, records = [], []
    for k in range(nb):
        br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
        block = cells[br * m:(br + 1) * m, bc * m:(bc + 1) * m]
        stored = cm.parity(br, bc)
        fresh = encode_block(block)
        diag = decode_syndrome(Syndrome(
            tuple(a ^ b for a, b in zip(fresh.leading, stored.leading)),
            tuple(a ^ b for a, b in zip(fresh.counter, stored.counter))))
        reports.append(BlockReport(br, bc, diag))
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


@st.composite
def faulty_lines(draw):
    """A geometry, a line of blocks and up to two faults in each block.

    A fault is a data-bit or a stored check-bit flip; the explicit pair of
    one leading and one counter check-bit flip is the decoder's blind spot.
    """
    geom = draw(st.sampled_from([Geometry(45, 3), Geometry(45, 5), Geometry(63, 7)]))
    m, nb = geom.m, geom.blocks_per_side
    diag = st.integers(0, m - 1)
    data = st.tuples(st.just("data"), diag, diag)
    check = st.tuples(st.just("check"), st.sampled_from(list(Bank)), diag)
    blind = st.tuples(diag, diag).map(
        lambda dd: [("check", Bank.LEADING, dd[0]), ("check", Bank.COUNTER, dd[1])])
    faults = st.one_of(st.lists(st.one_of(data, check), max_size=2), blind)
    return (geom, draw(st.sampled_from(list(Orientation))), draw(st.integers(0, nb - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.lists(faults, min_size=nb, max_size=nb)))


class TestLineCheckOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=faulty_lines())
    def test_reports_cells_planes_and_events_match_the_scalar_oracle(self, case):
        geom, orientation, index, seed, faults = case
        m, nb = geom.m, geom.blocks_per_side
        machine = random_consistent_machine(seed, geom)
        for k, block_faults in enumerate(faults):
            br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
            for kind, a, b in block_faults:
                if kind == "data":
                    machine.inject_data_flip(br * m + a, bc * m + b)
                else:
                    machine.inject_check_flip(a, b, br, bc)
        # a flip in a block off the line stays where it is
        machine.inject_data_flip(((index + 1) % nb) * m, ((index + 1) % nb) * m)
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
        assert done == max(ev.end for ev in events)


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
    memory's layout: a line's fresh check-bits, ``CheckMem.from_state`` and
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
            spans = checkmem.block_spans(cells, m)
            fresh = diag_parity(spans[index] if by_row else spans[:, index], m, n).tolist()
            assert [BlockParity(tuple(lead), tuple(ctr)) for lead, ctr in fresh] == [
                expect[block] for block in line], name
            state = CrossbarState(geom, cells)
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
        summary = machine.full_memory_check(orientation)
        assert calls == [5] * geom.blocks_per_side ** 2
        assert summary.corrected == 1


def reset_by_init_ops(machine, block_row, block_col, earliest=0):
    """Oracle of ``block_ecc_reset``: one Init op per line of the block, then
    the all-ones check-bits written directly."""
    m, nb = machine.geom.m, machine.geom.blocks_per_side
    t0 = max(earliest, machine.timeline.next_free("MEM"))
    base_row, base_col = block_row * m, block_col * m
    lanes = frozenset(range(base_row, base_row + m))
    machine.log(t0, "SCHED", "block_reset", f"block={block_row},{block_col}")
    t = t0
    for lc in range(m):
        op = init_op(Orientation.ROW, base_col + lc, lanes)
        machine.timeline.reserve("MEM", t, 1)
        apply_op_inplace(machine.state.cells, op, machine.engine_cfg)
        machine.log(t, "MEM", "op", format_op(op) + " critical=0 reset=1")
        t += 1
    set_parity(machine.checkmem, block_row, block_col, BlockParity((1,) * m, (1,) * m))
    wb = machine.timing.writeback_cycles
    t = max(t, machine.timeline.next_free("CTRL"))
    units = [(b, d, f"CBX:{bank.value}:{d}")
             for b, bank in enumerate(Bank) for d in range(m)]
    # step one cycle at a time, asking the timeline only whether t itself is free
    while any(machine.timeline.first_free((unit,), t, ((0, wb),)) != t
              for _, _, unit in units):
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
        """A machine whose MEM, CTRL and check-bit crossbars are all in use."""
        machine = random_consistent_machine(4505, self.GEOM, timing=timing, pc_pairs=1)
        lanes = frozenset(range(45))
        machine.critical_op(init_op(Orientation.ROW, 12, lanes))
        machine.inject_data_flip(11, 3)
        machine.check_block_row(2)
        machine.critical_op(nor_op(Orientation.ROW, (3, 4), 12, lanes))
        return machine

    @pytest.mark.parametrize("timing", [TimingModel(), TimingModel(writeback_cycles=3)])
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
        assert machine.timeline._windows == oracle.timeline._windows

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
        assert machine.timeline._windows == oracle.timeline._windows

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
            args = (orientation, pick(2, nb),
                    [(tuple(Bank)[rng.integers(2)], int(rng.integers(m)), pick(2, nb))
                     for _ in range(rng.integers(1, 4))])
        steps.append((kind, args, 0 if rng.random() < 0.5 else int(rng.integers(41))))
    return timing, steps


def reads_before_writes(machine):
    """(bit, read cycle, write end) of every ``load_check`` that starts before
    the end of the last logged ``writeback``, ``ecc_write`` or
    ``correct_check`` of a bit it reads; bits are named as in the event log,
    e.g. ``L2@1,0``."""
    written, early = {}, []
    for ev in machine.events:
        if ev.action == "ecc_write":
            block = ev.operands.removeprefix("block=")
            written.update(dict.fromkeys(
                (f"{tag}{d}@{block}" for tag in "LC" for d in range(machine.geom.m)),
                ev.end))
        elif ev.action == "correct_check":  # unit CBX:<bank>:<diag>
            _, bank, diag = ev.unit.split(":")
            block = ev.operands.split()[0].removeprefix("block=")
            written[f"{bank[0].upper()}{diag}@{block}"] = ev.end
        elif ev.action in ("load_check", "writeback"):
            bits = ev.operands.removeprefix("cells=").split(";")
            if ev.action == "writeback":
                written.update(dict.fromkeys(bits, ev.end))
            else:
                early += [(bit, ev.cycle, written[bit]) for bit in bits
                          if written.get(bit, 0) > ev.cycle]
    return early


class TestSameCellHazard:
    @settings(max_examples=100, deadline=None)
    @given(geom=st.sampled_from([Geometry(30, 3), Geometry(45, 5)]),
           pc_pairs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_no_check_bit_is_read_before_its_last_write_ends(self, geom, pc_pairs, seed):
        timing, steps = hazard_program(seed, geom)
        machine = random_consistent_machine(seed, geom, timing=timing, pc_pairs=pc_pairs)
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
                for bank, diag, k in flips:
                    br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
                    machine.inject_check_flip(bank, diag, br, bc)
                machine.check_block_row(index, orientation, earliest)
        assert reads_before_writes(machine) == []

    @pytest.mark.parametrize("in_flight", [None, 10_000])
    def test_a_correction_makes_its_bit_ready_no_earlier_than_before(self, in_flight):
        # check-bit L1 of block (0, 2) is flipped and corrected by a check of
        # block row 0; a writeback may still be in flight to it
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
        assert machine._check_ready[bit] == max(fix.end, in_flight or 0)
        assert ready_cycles(machine) == {np.ravel_multi_index(bit, (2, geom.m, nb, nb)):
                                         max(fix.end, in_flight or 0)}
        assert consistent(machine)

    @pytest.mark.parametrize("step", ["critical_op", "block_ecc_reset"])
    def test_a_cycle_past_int32_raises_overflow_error(self, step):
        # check-bit readiness is int32; numpy raises rather than wraps
        machine = Machine.blank(Geometry(30, 3))
        with pytest.raises(OverflowError):
            if step == "critical_op":
                machine.critical_op(init_op(Orientation.ROW, 0, {3}), earliest=2**31)
            else:
                machine.block_ecc_reset(1, 0, earliest=2**31)

    def test_a_block_reset_makes_its_bits_ready_no_earlier_than_before(self):
        # the op folds cell (3, 0) into L0 and C0 of block (1, 0), keys 1 and
        # 301, until cycle 12; the reset writes all six of the block's bits
        # from cycle 6 to 7 (its write lands first: ROADMAP item 1)
        machine = Machine.blank(Geometry(30, 3))
        machine.critical_op(init_op(Orientation.ROW, 0, {3}))
        assert ready_cycles(machine) == {1: 12, 301: 12}
        assert machine.block_ecc_reset(1, 0) == 7
        assert ready_cycles(machine) == {1: 12, 301: 12, 101: 7, 201: 7, 401: 7, 501: 7}


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
