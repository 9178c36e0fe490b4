"""MAGIC engine: truth tables, preconditions, locality, and symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarecc.engine import (
    CrossbarState,
    EngineConfig,
    MicroOp,
    MicroOpError,
    OpKind,
    Orientation,
    UninitializedOutputError,
    execute,
    format_op,
    init_op,
    nor_op,
    parse_op,
)
from xbarecc.geometry import Geometry

GEOM = Geometry(9, 3)


def state_with(rows):
    cells = np.zeros((9, 9), dtype=np.uint8)
    for r, values in enumerate(rows):
        cells[r, :len(values)] = values
    return CrossbarState(GEOM, cells)


class TestNorTruthTable:
    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    def test_two_input_nor(self, a, b, expect):
        state = state_with([[a, b, 1]])
        out = execute(state, nor_op(Orientation.ROW, (0, 1), 2, {0}))
        assert out.cells[0, 2] == expect

    @pytest.mark.parametrize("a,expect", [(0, 1), (1, 0)])
    def test_not_via_single_input_nor(self, a, expect):
        state = state_with([[a, 1]])
        out = execute(state, nor_op(Orientation.ROW, (0,), 1, {0}))
        assert out.cells[0, 1] == expect

    def test_row_parallel_example(self):
        # rows hold (0,0), (0,1), (1,1); NOR of cols 0,1 into col 2
        state = state_with([[0, 0, 1], [0, 1, 1], [1, 1, 1]])
        out = execute(state, nor_op(Orientation.ROW, (0, 1), 2, {0, 1, 2}))
        assert list(out.cells[:3, 2]) == [1, 0, 0]


class TestInitAndPreconditions:
    def test_init_column_all_rows(self):
        state = execute(CrossbarState.zeros(GEOM), init_op(Orientation.ROW, 5, range(9)))
        assert (state.cells[:, 5] == 1).all()
        assert state.cells.sum() == 9

    def test_init_then_nor_passes_precondition(self):
        state = execute(CrossbarState.zeros(GEOM), init_op(Orientation.ROW, 2, {0}))
        execute(state, nor_op(Orientation.ROW, (0, 1), 2, {0}))

    def test_empty_lane_mask_rejected(self):
        with pytest.raises(MicroOpError):
            init_op(Orientation.ROW, 2, set())

    def test_uninitialized_output_rejected(self):
        state = CrossbarState.zeros(GEOM)
        with pytest.raises(UninitializedOutputError):
            execute(state, nor_op(Orientation.ROW, (0, 1), 2, {0}))

    def test_enforcement_can_be_disabled(self):
        state = CrossbarState.zeros(GEOM)
        cfg = EngineConfig(require_output_init=False)
        out = execute(state, nor_op(Orientation.ROW, (0, 1), 2, {0}), cfg)
        assert out.cells[0, 2] == 1

    def test_fan_in_limit(self):
        state = execute(CrossbarState.zeros(GEOM), init_op(Orientation.ROW, 4, {0}))
        with pytest.raises(MicroOpError):
            execute(state, nor_op(Orientation.ROW, (0, 1, 2), 4, {0}))
        wide = EngineConfig(fan_in_max=6)
        execute(state, nor_op(Orientation.ROW, (0, 1, 2), 4, {0}), wide)

    def test_index_out_of_range(self):
        state = CrossbarState.zeros(GEOM)
        with pytest.raises(MicroOpError):
            execute(state, init_op(Orientation.ROW, 9, {0}))
        with pytest.raises(MicroOpError):
            execute(state, init_op(Orientation.ROW, 0, {11}))

    @pytest.mark.parametrize("lanes, bad", [({0, 4, 11}, 11), ({-1, 3}, -1),
                                            (set(range(10)) | {10}, 10)])
    def test_out_of_range_lane_is_named(self, lanes, bad):
        state = CrossbarState.zeros(GEOM)
        with pytest.raises(MicroOpError, match=rf"lane index {bad} outside \[0,{GEOM.n}\)"):
            execute(state, init_op(Orientation.ROW, 0, lanes))

    def test_output_cannot_be_input(self):
        with pytest.raises(MicroOpError):
            nor_op(Orientation.ROW, (2, 3), 2, {0})


class TestReadWriteKinds:
    def test_read_is_identity(self):
        state = state_with([[1, 0, 1]])
        op = MicroOp(OpKind.READ, Orientation.ROW, (), 1, frozenset({0}))
        assert execute(state, op) == state

    def test_write_sets_value(self):
        state = state_with([[1, 1, 1]])
        op = MicroOp(OpKind.WRITE, Orientation.ROW, (), 1, frozenset({0}), value=0)
        assert execute(state, op).cells[0, 1] == 0


def random_states(n=9):
    return st.integers(0, 2**81 - 1).map(
        lambda bits: CrossbarState(GEOM, np.array(
            [(bits >> k) & 1 for k in range(n * n)], dtype=np.uint8).reshape(n, n)))


def random_nor_ops():
    def build(draw_tuple):
        out, in1, in2, lane_bits = draw_tuple
        inputs = tuple(sorted({in1, in2} - {out})) or ((out + 1) % 9,)
        lanes = frozenset(k for k in range(9) if (lane_bits >> k) & 1) or frozenset({0})
        return nor_op(Orientation.ROW, inputs, out, lanes)
    return st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
                     st.integers(1, 2**9 - 1)).map(build)


NO_INIT = EngineConfig(require_output_init=False)


class TestEngineProperties:
    @given(random_states(), random_nor_ops())
    @settings(max_examples=60, deadline=None)
    def test_determinism_and_locality(self, state, op):
        out1 = execute(state, op, NO_INIT)
        out2 = execute(state, op, NO_INIT)
        assert out1 == out2
        changed = np.argwhere(out1.cells != state.cells)
        for row, col in changed:
            assert col == op.output_line and row in op.lane_mask

    @given(random_states(), random_nor_ops())
    @settings(max_examples=60, deadline=None)
    def test_parallel_equals_composition_of_single_lanes(self, state, op):
        parallel = execute(state, op, NO_INIT)
        merged = state.copy()
        for lane in op.lanes:
            single = execute(state, nor_op(op.orientation, op.input_lines,
                                           op.output_line, {lane}), NO_INIT)
            merged.cells[lane, op.output_line] = single.cells[lane, op.output_line]
        assert parallel == merged

    @given(random_states(), random_nor_ops())
    @settings(max_examples=60, deadline=None)
    def test_transpose_symmetry(self, state, op):
        col_op = MicroOp(OpKind.NOR, Orientation.COLUMN, op.input_lines,
                         op.output_line, op.lane_mask)
        via_column = execute(state, col_op, NO_INIT)
        via_transpose = execute(state.transposed(), op, NO_INIT).transposed()
        assert via_column == via_transpose


class TestOpSerialization:
    def test_round_trip(self):
        ops = [
            nor_op(Orientation.ROW, (0, 1), 2, {0, 3, 5}),
            nor_op(Orientation.COLUMN, (7,), 8, {2}),
            init_op(Orientation.ROW, 4, {1}),
            MicroOp(OpKind.WRITE, Orientation.ROW, (), 3, frozenset({0}), value=0),
        ]
        for op in ops:
            assert parse_op(format_op(op)) == op

    def test_record_text_is_pinned(self):
        assert format_op(nor_op(Orientation.COLUMN, (7, 2), 4, {10, 3, 0})) == \
            "kind=nor orient=column out=4 in=7,2 lanes=0,3,10"
        assert format_op(MicroOp(OpKind.WRITE, Orientation.ROW, (), 3, frozenset({1}),
                                 value=0)) == \
            "kind=write orient=row out=3 in=- lanes=1 value=0"

    def test_bad_record_rejected(self):
        with pytest.raises(MicroOpError):
            parse_op("kind=nor orient=row")
