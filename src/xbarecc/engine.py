"""Functional MAGIC execution engine with per-operation cycle accounting.

A micro-op is a single row- or column-parallel MAGIC operation: the same
gate applied across every active lane in one clock cycle. The gates are NOR
of one or two input lines (a one-input NOR is a NOT) and Init, which presets
a line to 1; an op's shape is checked once, when it is built. NOR outputs
must be preset to 1 (the MAGIC initialization convention), which the engine
always enforces, before an op writes or is booked, so that compilers
forgetting Init ops fail loudly.
"""

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import Geometry


class MicroOpError(ValueError):
    """Malformed micro-op: bad indices, fan-in, or lane set."""


class UninitializedOutputError(MicroOpError):
    """NOR executed on an output cell that was not preset to 1."""


class OpKind(Enum):
    NOR = "nor"
    INIT = "init"


class Orientation(Enum):
    ROW = "row"
    COLUMN = "column"


FAN_IN_MAX = 2  # input lines of a MAGIC NOR


class LaneSet(NamedTuple):
    """What an op needs of its lane set, worked out once per lane set by
    :func:`lane_set`: the sorted lanes; the lanes as an index along a line;
    and the lanes as record text, comma-joined. The index is the lane
    itself when there is one, so an op reads and writes numpy scalars
    rather than arrays of one cell; a slice when the lanes are contiguous
    (a block, every lane), so it reads and writes views; else a read-only
    index array."""

    lanes: tuple[int, ...]
    index: int | slice | np.ndarray
    text: str


@functools.lru_cache(maxsize=4)
def lane_set(lane_mask: frozenset[int]) -> LaneSet:
    """The :class:`LaneSet` of a lane mask, memoised by value: a schedule's
    ops share a few lane sets (one lane, or every lane of a widened
    program). An entry for every lane holds ~13 KB at n=1020 and ~52 KB at
    n=4096, plus its frozen key (~56 KB and ~250 KB), so the memo holds at
    most ~1.2 MB."""
    lanes = tuple(sorted(lane_mask))
    lo, hi = lanes[0], lanes[-1] + 1
    if len(lanes) == 1:
        index = lo
    elif lo >= 0 and hi - lo == len(lanes):
        index = slice(lo, hi)
    else:
        index = np.array(lanes, dtype=np.intp)
        index.flags.writeable = False  # shared by every op on the lane set
    return LaneSet(lanes, index, ",".join(map(str, lanes)))


_set_field = object.__setattr__  # how the __init__ of a frozen dataclass writes a field


@dataclass(frozen=True, slots=True, init=False)
class MicroOp:
    """One row/column-parallel MAGIC operation (one clock cycle).

    For ROW orientation the lanes are row indices and the lines are column
    indices; COLUMN is the transpose. A NOR has one or two input lines (a
    1-input NOR is a NOT); an Init has none.
    """

    kind: OpKind
    orientation: Orientation
    input_lines: tuple[int, ...]
    output_line: int
    lane_mask: frozenset[int]
    lane_set: LaneSet = field(init=False, repr=False, compare=False)  # lane_set(lane_mask)

    def __init__(self, kind: OpKind, orientation: Orientation, input_lines: tuple[int, ...],
                 output_line: int, lane_mask: frozenset[int]):
        if output_line in input_lines:
            raise MicroOpError(f"output line {output_line} also listed as input")
        if len(set(input_lines)) != len(input_lines):
            raise MicroOpError("duplicate input lines")
        lane_mask = frozenset(lane_mask)  # the same object when it is one already
        if not lane_mask:
            raise MicroOpError("empty lane mask")
        if kind is OpKind.NOR:
            if not 1 <= len(input_lines) <= FAN_IN_MAX:
                raise MicroOpError(f"NOR needs 1 to {FAN_IN_MAX} input lines, "
                                   f"got {len(input_lines)}")
        elif input_lines:
            raise MicroOpError("Init takes no input lines")
        # written here rather than by a generated __init__ and __post_init__,
        # which look the setter up once per field and validate in a second call
        _set_field(self, "kind", kind)
        _set_field(self, "orientation", orientation)
        _set_field(self, "input_lines", input_lines)
        _set_field(self, "output_line", output_line)
        _set_field(self, "lane_mask", lane_mask)
        _set_field(self, "lane_set", lane_set(lane_mask))


def nor_op(orientation: Orientation, inputs: tuple[int, ...], output: int,
           lanes) -> MicroOp:
    return MicroOp(OpKind.NOR, orientation, tuple(inputs), output, lanes)


def init_op(orientation: Orientation, output: int, lanes) -> MicroOp:
    return MicroOp(OpKind.INIT, orientation, (), output, lanes)


class CrossbarState:
    """n x n bit matrix of memristor logical states (1 = LRS, 0 = HRS)."""

    def __init__(self, geom: Geometry, cells: np.ndarray):
        if cells.shape != (geom.n, geom.n):
            raise MicroOpError(f"cell array {cells.shape} does not match n={geom.n}")
        self.geom = geom
        self.cells = cells.astype(np.uint8, copy=False)

    @classmethod
    def zeros(cls, geom: Geometry) -> "CrossbarState":
        return cls(geom, np.zeros((geom.n, geom.n), dtype=np.uint8))

    def copy(self) -> "CrossbarState":
        return CrossbarState(self.geom, self.cells.copy())

    @property
    def blocks(self) -> np.ndarray:
        """Read-only view ``[block_row, block_col, i, j]`` of the m x m blocks,
        the codec's one read of them; the reshape copies cells not in C order."""
        m, nb = self.geom.m, self.geom.blocks_per_side
        blocks = self.cells.reshape(nb, m, nb, m).swapaxes(1, 2)
        blocks.flags.writeable = False
        return blocks

    def __eq__(self, other) -> bool:
        return (isinstance(other, CrossbarState)
                and self.geom == other.geom
                and np.array_equal(self.cells, other.cells))


def validate_op(state: CrossbarState, op: MicroOp) -> None:
    """Admit an op to ``state`` (its shape was checked when it was built):
    raise :class:`MicroOpError` if a line or lane lies outside the crossbar,
    then :class:`UninitializedOutputError` if a NOR's outputs are not all 1."""
    n = state.geom.n
    for line in (*op.input_lines, op.output_line):
        if not 0 <= line < n:
            raise MicroOpError(f"line index {line} outside [0,{n})")
    lanes = op.lane_set.lanes
    for lane in (lanes[0], lanes[-1]):  # sorted: the least and the greatest
        if not 0 <= lane < n:
            raise MicroOpError(f"lane index {lane} outside [0,{n})")
    if op.kind is OpKind.NOR:
        cells, index = state.cells, op.lane_set.index
        plane = cells if op.orientation is Orientation.ROW else cells.T
        preset = plane[index, op.output_line] == 1
        # one lane reads a numpy scalar, tested as it is: its .all() goes
        # through an array conversion costing ~10x the compare
        if not (preset if isinstance(index, int) else preset.all()):
            raise UninitializedOutputError(
                f"NOR output line {op.output_line} has non-preset cells")


def apply_op_inplace(cells: np.ndarray, op: MicroOp) -> None:
    """Write one micro-op, admitted by :func:`validate_op`, directly to a
    cell array (used by the machine model)."""
    lanes = op.lane_set.index
    # COLUMN ops are the ROW ops of the transpose; views keep this in-place
    plane = cells if op.orientation is Orientation.ROW else cells.T
    if op.kind is OpKind.NOR:
        ored = plane[lanes, op.input_lines[0]]
        for line in op.input_lines[1:]:
            ored = ored | plane[lanes, line]
        plane[lanes, op.output_line] = ored == 0
    else:  # INIT
        plane[lanes, op.output_line] = 1


def execute(state: CrossbarState, op: MicroOp) -> CrossbarState:
    """Execute one micro-op and return the successor state (one cycle).

    Only cells on the output line within the lane mask change; within a
    single op the outputs never feed back into the inputs, so a parallel op
    equals the composition of its single-lane parts on the same pre-state.
    """
    validate_op(state, op)
    new = state.copy()
    apply_op_inplace(new.cells, op)
    return new


def op_record(kind: OpKind, orientation: Orientation, output_line: int,
              input_lines: tuple[int, ...], lanes: str) -> str:
    """The one renderer of an op record from its fields; ``lanes`` is the
    sorted lanes, comma-joined, as in :attr:`LaneSet.text`. :func:`format_op`
    and a block reset, which logs its Init records without building ops,
    both call it."""
    return (f"kind={kind.value} orient={orientation.value} out={output_line} "
            f"in={','.join(map(str, input_lines)) or '-'} lanes={lanes}")


def format_op(op: MicroOp) -> str:
    """Serialize a micro-op as the operand field of a trace/event record."""
    return op_record(op.kind, op.orientation, op.output_line, op.input_lines,
                     op.lane_set.text)


def parse_op(text: str) -> MicroOp:
    """Inverse of :func:`format_op`."""
    fields = {}
    for tok in text.split():
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        kind = OpKind(fields["kind"])
        orient = Orientation(fields["orient"])
        out = int(fields["out"])
        ins = () if fields["in"] == "-" else tuple(int(x) for x in fields["in"].split(","))
        lanes = frozenset(int(x) for x in fields["lanes"].split(","))
    except (KeyError, ValueError) as exc:
        raise MicroOpError(f"bad op record {text!r}: {exc}") from None
    return MicroOp(kind, orient, ins, out, lanes)
