"""MAGIC engine: truth tables, preconditions, locality, and symmetries."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarecc.engine import (
    CrossbarState,
    MicroOp,
    MicroOpError,
    OpKind,
    Orientation,
    UninitializedOutputError,
    apply_op_inplace,
    execute,
    format_op,
    init_op,
    nor_op,
    parse_op,
    validate_op,
)
from xbarecc.geometry import Geometry

GEOM = Geometry(9, 3)


def state_with(rows):
    cells = np.zeros((9, 9), dtype=np.uint8)
    for r, values in enumerate(rows):
        cells[r, :len(values)] = values
    return CrossbarState(GEOM, cells)


def transposed(state: CrossbarState) -> CrossbarState:
    return CrossbarState(state.geom, state.cells.T.copy())


def nor_cell(bits, orientation: Orientation) -> int:
    """The cell a NOR of lines 0..k-1 writes on lane 0, line k, where lane 0
    holds ``bits`` and a preset output, read along either orientation."""
    state = state_with([[*bits, 1]])
    if orientation is Orientation.COLUMN:
        state = transposed(state)
    k = len(bits)
    out = execute(state, nor_op(orientation, tuple(range(k)), k, {0}))
    return out.cells[0, k] if orientation is Orientation.ROW else out.cells[k, 0]


class TestNorTruthTable:
    @pytest.mark.parametrize("orientation", list(Orientation), ids=lambda o: o.value)
    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    def test_two_input_nor(self, a, b, expect, orientation):
        assert nor_cell((a, b), orientation) == expect

    @pytest.mark.parametrize("build", [
        lambda: nor_op(Orientation.ROW, (0, 1, 2), 3, {0}),
        lambda: replace(nor_op(Orientation.ROW, (0, 1), 3, {0}), input_lines=(0, 1, 2)),
        lambda: parse_op("kind=nor orient=row out=3 in=0,1,2 lanes=0"),
    ], ids=["nor_op", "replace", "parse_op"])
    def test_three_input_nor_is_rejected_when_built(self, build):
        with pytest.raises(MicroOpError, match="NOR needs 1 to 2 input lines, got 3"):
            build()

    @pytest.mark.parametrize("orientation", list(Orientation), ids=lambda o: o.value)
    @pytest.mark.parametrize("a,expect", [(0, 1), (1, 0)])
    def test_not_via_single_input_nor(self, a, expect, orientation):
        assert nor_cell((a,), orientation) == expect

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

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("lanes", [{4}, {3, 4, 5}, {0, 4, 8}])
    def test_one_unpreset_lane_is_rejected_whatever_the_lane_set(self, lanes, orientation):
        # one lane reads a scalar, a run a view, other sets an index array
        state = CrossbarState.zeros(GEOM)
        preset = init_op(orientation, 2, lanes)
        for lane in sorted(lanes)[1:]:
            state = execute(state, init_op(orientation, 2, {lane}))
        with pytest.raises(UninitializedOutputError):
            execute(state, nor_op(orientation, (0, 1), 2, lanes))
        execute(execute(state, preset), nor_op(orientation, (0, 1), 2, lanes))

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

    def test_a_nor_needs_an_input_and_an_init_takes_none(self):
        with pytest.raises(MicroOpError, match="NOR needs 1 to 2 input lines, got 0"):
            MicroOp(OpKind.NOR, Orientation.ROW, (), 2, frozenset({0}))
        with pytest.raises(MicroOpError, match="Init takes no input lines"):
            MicroOp(OpKind.INIT, Orientation.ROW, (0,), 2, frozenset({0}))


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


def preset(state: CrossbarState, op: MicroOp) -> CrossbarState:
    """``state`` after the Init of ``op``'s output line on its lanes."""
    return execute(state, init_op(op.orientation, op.output_line, op.lane_mask))


class TestEngineProperties:
    @given(random_states(), random_nor_ops())
    @settings(max_examples=60, deadline=None)
    def test_determinism_and_locality(self, state, op):
        out1 = execute(preset(state, op), op)
        out2 = execute(preset(state, op), op)
        assert out1 == out2
        changed = np.argwhere(out1.cells != state.cells)
        for row, col in changed:
            assert col == op.output_line and row in op.lane_mask

    @given(random_states(), random_nor_ops())
    @settings(max_examples=60, deadline=None)
    def test_parallel_equals_composition_of_single_lanes(self, state, op):
        state = preset(state, op)
        parallel = execute(state, op)
        merged = state.copy()
        for lane in op.lane_mask:
            single = execute(state, nor_op(op.orientation, op.input_lines,
                                           op.output_line, {lane}))
            merged.cells[lane, op.output_line] = single.cells[lane, op.output_line]
        assert parallel == merged

    @given(random_states(), random_nor_ops())
    @settings(max_examples=60, deadline=None)
    def test_transpose_symmetry(self, state, op):
        col_op = MicroOp(OpKind.NOR, Orientation.COLUMN, op.input_lines,
                         op.output_line, op.lane_mask)
        state = preset(state, col_op)
        via_column = execute(state, col_op)
        via_transpose = transposed(execute(transposed(state), op))
        assert via_column == via_transpose


def cell_loop(cells: np.ndarray, op: MicroOp) -> np.ndarray:
    """Reference of ``validate_op`` on an in-range op, then ``apply_op_inplace``:
    one cell at a time, in plain Python."""
    before = cells.tolist()
    after = cells.tolist()

    def at(grid, lane, line):
        return grid[lane][line] if op.orientation is Orientation.ROW else grid[line][lane]

    def put(lane, bit):
        if op.orientation is Orientation.ROW:
            after[lane][op.output_line] = bit
        else:
            after[op.output_line][lane] = bit

    if op.kind is OpKind.NOR:
        for lane in op.lane_mask:
            if at(before, lane, op.output_line) != 1:
                raise UninitializedOutputError(f"lane {lane} not preset")
    for lane in op.lane_mask:
        if op.kind is OpKind.NOR:
            put(lane, 0 if any(at(before, lane, line) for line in op.input_lines) else 1)
        else:  # INIT
            put(lane, 1)
    return np.array(after, dtype=np.uint8)


@st.composite
def engine_cases(draw):
    """A random n x n state and a valid op on it: 1 to n lanes (any set, or a
    contiguous run), either orientation, fan-in 1-2, NOR or Init; the output
    line is preset on the op's lanes or left as drawn."""
    n = draw(st.sampled_from([3, 9, 15]))
    bits = draw(st.integers(0, 2**(n * n) - 1))
    cells = np.array([bits >> k & 1 for k in range(n * n)], dtype=np.uint8).reshape(n, n)
    lines = draw(st.permutations(range(n)))
    out, inputs = lines[0], tuple(lines[1:1 + draw(st.sampled_from([2, 1]))])
    if draw(st.booleans()):  # any set of lanes
        mask = draw(st.integers(1, 2**n - 1))
        lanes = {lane for lane in range(n) if mask >> lane & 1}
    else:  # a contiguous run, from one lane to all n
        lo = draw(st.integers(0, n - 1))
        lanes = set(range(lo, draw(st.integers(lo + 1, n))))
    kind = draw(st.sampled_from([OpKind.NOR] * 3 + [OpKind.INIT]))
    op = MicroOp(kind, draw(st.sampled_from(Orientation)),
                 inputs if kind is OpKind.NOR else (), out, frozenset(lanes))
    if draw(st.booleans()):
        for lane in lanes:
            if op.orientation is Orientation.ROW:
                cells[lane, out] = 1
            else:
                cells[out, lane] = 1
    return cells, op


class TestEngineOracle:
    @given(engine_cases())
    @settings(max_examples=500, deadline=None)
    def test_apply_matches_a_cell_by_cell_loop(self, case):
        cells, op = case
        state = CrossbarState(Geometry(cells.shape[0], 3), cells)
        try:
            expected = cell_loop(cells, op)
        except UninitializedOutputError:
            with pytest.raises(UninitializedOutputError):
                validate_op(state, op)
            return
        validate_op(state, op)
        got = cells.copy()
        apply_op_inplace(got, op)
        assert np.array_equal(got, expected)


def reference_record(op: MicroOp) -> str:
    """The op-record format rendered field by field, lanes sorted and joined."""
    fields = [f"kind={op.kind.value}", f"orient={op.orientation.value}",
              f"out={op.output_line}",
              "in=" + (",".join(str(line) for line in op.input_lines) or "-"),
              "lanes=" + ",".join(str(lane) for lane in sorted(op.lane_mask))]
    return " ".join(fields)


class TestOpSerialization:
    def test_round_trip(self):
        ops = [
            nor_op(Orientation.ROW, (0, 1), 2, {0, 3, 5}),
            nor_op(Orientation.COLUMN, (7,), 8, {2}),
            init_op(Orientation.ROW, 4, {1}),
        ]
        for op in ops:
            assert parse_op(format_op(op)) == op

    def test_record_text_is_pinned(self):
        assert format_op(nor_op(Orientation.COLUMN, (7, 2), 4, {10, 3, 0})) == \
            "kind=nor orient=column out=4 in=7,2 lanes=0,3,10"
        assert format_op(init_op(Orientation.ROW, 3, {1})) == \
            "kind=init orient=row out=3 in=- lanes=1"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_records_match_a_reference_renderer_and_parse_back(self, data):
        # a pool of contiguous and scattered lane sets; ops draw from it, so
        # equal sets recur, as fresh frozensets, behind different ops
        contiguous = st.tuples(st.integers(0, 4095), st.integers(1, 1100)).map(
            lambda lo_len: range(lo_len[0], min(lo_len[0] + lo_len[1], 4096)))
        scattered = st.lists(st.integers(0, 4095), min_size=1, max_size=40)
        pool = data.draw(st.lists(st.one_of(contiguous, scattered), min_size=1, max_size=4))
        for _ in range(data.draw(st.integers(1, 8))):
            lanes = frozenset(data.draw(st.sampled_from(pool)))
            kind = data.draw(st.sampled_from(list(OpKind)))
            ins = (data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))
                   if kind is OpKind.NOR else [])
            op = MicroOp(kind, data.draw(st.sampled_from(list(Orientation))), tuple(ins),
                         data.draw(st.integers(10, 20)), lanes)
            text = format_op(op)
            assert text == reference_record(op)
            assert parse_op(text) == op

    @pytest.mark.parametrize("text", [
        "kind=nor orient=row",
        "kind=nor orient=row out=3 in=- lanes=1",
        "kind=init orient=row out=3 in=0 lanes=1",
        "kind=write orient=row out=3 in=- lanes=1 value=0",
        "kind=read orient=row out=3 in=- lanes=1",
    ])
    def test_bad_record_rejected(self, text):
        with pytest.raises(MicroOpError):
            parse_op(text)
