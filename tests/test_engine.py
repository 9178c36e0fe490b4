"""MAGIC engine: truth tables, preconditions, locality, and symmetries."""

import itertools

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


class TestNorTruthTable:
    @pytest.mark.parametrize("a,b,expect", [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    def test_two_input_nor(self, a, b, expect):
        state = state_with([[a, b, 1]])
        out = execute(state, nor_op(Orientation.ROW, (0, 1), 2, {0}))
        assert out.cells[0, 2] == expect

    @pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_three_input_nor(self, bits, orientation):
        state = state_with([[*bits, 1]])
        if orientation is Orientation.COLUMN:
            state = transposed(state)
        out = execute(state, nor_op(orientation, (0, 1, 2), 3, {0}),
                      EngineConfig(fan_in_max=3))
        cell = out.cells[0, 3] if orientation is Orientation.ROW else out.cells[3, 0]
        assert cell == (0 if any(bits) else 1)

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
        for lane in op.lane_mask:
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
        via_transpose = transposed(execute(transposed(state), op, NO_INIT))
        assert via_column == via_transpose


def cell_loop(cells: np.ndarray, op: MicroOp, cfg: EngineConfig) -> np.ndarray:
    """Reference of ``apply_op_inplace``: one cell at a time, in plain Python."""
    before = cells.tolist()
    after = cells.tolist()

    def at(grid, lane, line):
        return grid[lane][line] if op.orientation is Orientation.ROW else grid[line][lane]

    def put(lane, bit):
        if op.orientation is Orientation.ROW:
            after[lane][op.output_line] = bit
        else:
            after[op.output_line][lane] = bit

    if op.kind is OpKind.NOR and cfg.require_output_init:
        for lane in op.lane_mask:
            if at(before, lane, op.output_line) != 1:
                raise UninitializedOutputError(f"lane {lane} not preset")
    for lane in op.lane_mask:
        if op.kind is OpKind.NOR:
            put(lane, 0 if any(at(before, lane, line) for line in op.input_lines) else 1)
        elif op.kind is OpKind.INIT:
            put(lane, 1)
        elif op.kind is OpKind.WRITE:
            put(lane, op.value)
    return np.array(after, dtype=np.uint8)


@st.composite
def engine_cases(draw):
    """A random n x n state and a valid op on it: 1 to n lanes (any set, or a
    contiguous run), either orientation, fan-in 1-3, any kind; the output
    line is preset on the op's lanes or left as drawn."""
    n = draw(st.sampled_from([3, 9, 15]))
    bits = draw(st.integers(0, 2**(n * n) - 1))
    cells = np.array([bits >> k & 1 for k in range(n * n)], dtype=np.uint8).reshape(n, n)
    lines = draw(st.permutations(range(n)))
    out, inputs = lines[0], tuple(lines[1:1 + draw(st.sampled_from([3, 2, 1]))])
    if draw(st.booleans()):  # any set of lanes
        mask = draw(st.integers(1, 2**n - 1))
        lanes = {lane for lane in range(n) if mask >> lane & 1}
    else:  # a contiguous run, from one lane to all n
        lo = draw(st.integers(0, n - 1))
        lanes = set(range(lo, draw(st.integers(lo + 1, n))))
    kind = draw(st.sampled_from([OpKind.NOR] * 3 + [OpKind.INIT, OpKind.WRITE, OpKind.READ]))
    op = MicroOp(kind, draw(st.sampled_from(Orientation)),
                 inputs if kind is OpKind.NOR else (), out, frozenset(lanes),
                 draw(st.integers(0, 1)) if kind is OpKind.WRITE else 1)
    if draw(st.booleans()):
        for lane in lanes:
            if op.orientation is Orientation.ROW:
                cells[lane, out] = 1
            else:
                cells[out, lane] = 1
    cfg = EngineConfig(fan_in_max=3, require_output_init=draw(st.booleans()))
    return cells, op, cfg


class TestEngineOracle:
    @given(engine_cases())
    @settings(max_examples=500, deadline=None)
    def test_apply_matches_a_cell_by_cell_loop(self, case):
        cells, op, cfg = case
        validate_op(CrossbarState(Geometry(cells.shape[0], 3), cells), op, cfg)
        got = cells.copy()
        try:
            expected = cell_loop(cells, op, cfg)
        except UninitializedOutputError:
            with pytest.raises(UninitializedOutputError):
                apply_op_inplace(got, op, cfg)
            assert np.array_equal(got, cells)  # nothing written
            return
        apply_op_inplace(got, op, cfg)
        assert np.array_equal(got, expected)


def reference_record(op: MicroOp) -> str:
    """The op-record format rendered field by field, lanes sorted and joined."""
    fields = [f"kind={op.kind.value}", f"orient={op.orientation.value}",
              f"out={op.output_line}",
              "in=" + (",".join(str(line) for line in op.input_lines) or "-"),
              "lanes=" + ",".join(str(lane) for lane in sorted(op.lane_mask))]
    if op.kind is OpKind.WRITE:
        fields.append(f"value={op.value}")
    return " ".join(fields)


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
            ins = (data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
                   if kind is OpKind.NOR else [])
            op = MicroOp(kind, data.draw(st.sampled_from(list(Orientation))), tuple(ins),
                         data.draw(st.integers(10, 20)), lanes,
                         data.draw(st.integers(0, 1)) if kind is OpKind.WRITE else 1)
            text = format_op(op)
            assert text == reference_record(op)
            assert parse_op(text) == op

    def test_bad_record_rejected(self):
        with pytest.raises(MicroOpError):
            parse_op("kind=nor orient=row")
