"""Functional MAGIC execution engine with per-operation cycle accounting.

A micro-op is a single row- or column-parallel MAGIC operation: the same
gate applied across every active lane in one clock cycle. NOR outputs must
be preset to 1 (the MAGIC initialization convention), which the engine
enforces by default so that compilers forgetting Init ops fail loudly.
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
    READ = "read"
    WRITE = "write"


class Orientation(Enum):
    ROW = "row"
    COLUMN = "column"


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
    indices; COLUMN is the transpose. A 1-input NOR is a NOT.
    """

    kind: OpKind
    orientation: Orientation
    input_lines: tuple[int, ...]
    output_line: int
    lane_mask: frozenset[int]
    value: int  # written bit for WRITE ops; INIT always writes 1
    lane_set: LaneSet = field(init=False, repr=False, compare=False)  # lane_set(lane_mask)

    def __init__(self, kind: OpKind, orientation: Orientation, input_lines: tuple[int, ...],
                 output_line: int, lane_mask: frozenset[int], value: int = 1):
        if output_line in input_lines:
            raise MicroOpError(f"output line {output_line} also listed as input")
        if len(set(input_lines)) != len(input_lines):
            raise MicroOpError("duplicate input lines")
        lane_mask = frozenset(lane_mask)  # the same object when it is one already
        if not lane_mask:
            raise MicroOpError("empty lane mask")
        if kind is OpKind.NOR and not input_lines:
            raise MicroOpError("NOR needs at least one input line")
        if value not in (0, 1):
            raise MicroOpError(f"bit value must be 0 or 1, got {value}")
        # written here rather than by a generated __init__ and __post_init__,
        # which look the setter up once per field and validate in a second call
        _set_field(self, "kind", kind)
        _set_field(self, "orientation", orientation)
        _set_field(self, "input_lines", input_lines)
        _set_field(self, "output_line", output_line)
        _set_field(self, "lane_mask", lane_mask)
        _set_field(self, "value", value)
        _set_field(self, "lane_set", lane_set(lane_mask))


def nor_op(orientation: Orientation, inputs: tuple[int, ...], output: int,
           lanes) -> MicroOp:
    return MicroOp(OpKind.NOR, orientation, tuple(inputs), output, lanes)


def init_op(orientation: Orientation, output: int, lanes) -> MicroOp:
    return MicroOp(OpKind.INIT, orientation, (), output, lanes)


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy: max NOR fan-in and output-preset enforcement."""

    fan_in_max: int = 2
    require_output_init: bool = True

    def __post_init__(self):
        if self.fan_in_max < 1:
            raise MicroOpError(f"fan_in_max must be >= 1, got {self.fan_in_max}")


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

    def block(self, block_row: int, block_col: int) -> np.ndarray:
        """View of one m x m block (no copy)."""
        m = self.geom.m
        return self.cells[block_row * m:(block_row + 1) * m,
                          block_col * m:(block_col + 1) * m]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CrossbarState)
                and self.geom == other.geom
                and np.array_equal(self.cells, other.cells))


def validate_op(state: CrossbarState, op: MicroOp, cfg: EngineConfig) -> None:
    """Range- and fan-in-check an op against a concrete crossbar."""
    n = state.geom.n
    for line in (*op.input_lines, op.output_line):
        if not 0 <= line < n:
            raise MicroOpError(f"line index {line} outside [0,{n})")
    lanes = op.lane_set.lanes
    for lane in (lanes[0], lanes[-1]):  # sorted: the least and the greatest
        if not 0 <= lane < n:
            raise MicroOpError(f"lane index {lane} outside [0,{n})")
    if op.kind is OpKind.NOR and len(op.input_lines) > cfg.fan_in_max:
        raise MicroOpError(
            f"fan-in {len(op.input_lines)} exceeds limit {cfg.fan_in_max}")


def apply_op_inplace(cells: np.ndarray, op: MicroOp, cfg: EngineConfig) -> None:
    """Apply one validated micro-op (:func:`validate_op`) directly to a cell
    array (used by the machine model)."""
    lanes = op.lane_set.index
    # COLUMN ops are the ROW ops of the transpose; views keep this in-place
    plane = cells if op.orientation is Orientation.ROW else cells.T
    if op.kind is OpKind.NOR:
        if cfg.require_output_init:
            preset = plane[lanes, op.output_line] == 1
            # one lane reads a numpy scalar, tested as it is: its .all() goes
            # through an array conversion costing ~10x the compare
            if not (preset if isinstance(lanes, int) else preset.all()):
                raise UninitializedOutputError(
                    f"NOR output line {op.output_line} has non-preset cells")
        ored = plane[lanes, op.input_lines[0]]
        for line in op.input_lines[1:]:
            ored = ored | plane[lanes, line]
        plane[lanes, op.output_line] = ored == 0
    elif op.kind is OpKind.INIT:
        plane[lanes, op.output_line] = 1
    elif op.kind is OpKind.WRITE:
        plane[lanes, op.output_line] = op.value
    # READ: no state change


def execute(state: CrossbarState, op: MicroOp,
            cfg: EngineConfig = EngineConfig()) -> CrossbarState:
    """Execute one micro-op and return the successor state (one cycle).

    Only cells on the output line within the lane mask change; within a
    single op the outputs never feed back into the inputs, so a parallel op
    equals the composition of its single-lane parts on the same pre-state.
    """
    validate_op(state, op, cfg)
    new = state.copy()
    apply_op_inplace(new.cells, op, cfg)
    return new


def op_record(kind: OpKind, orientation: Orientation, output_line: int,
              input_lines: tuple[int, ...], lanes: str, value: int = 1) -> str:
    """The one renderer of an op record from its fields; ``lanes`` is the
    sorted lanes, comma-joined, as in :attr:`LaneSet.text`. :func:`format_op`
    and a block reset, which logs its Init records without building ops,
    both call it."""
    text = (f"kind={kind.value} orient={orientation.value} out={output_line} "
            f"in={','.join(map(str, input_lines)) or '-'} lanes={lanes}")
    return text + f" value={value}" if kind is OpKind.WRITE else text


def format_op(op: MicroOp) -> str:
    """Serialize a micro-op as the operand field of a trace/event record."""
    return op_record(op.kind, op.orientation, op.output_line, op.input_lines,
                     op.lane_set.text, op.value)


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
        value = int(fields.get("value", 1))
    except (KeyError, ValueError) as exc:
        raise MicroOpError(f"bad op record {text!r}: {exc}") from None
    return MicroOp(kind, orient, ins, out, lanes, value)
