"""Functional MAGIC execution engine with per-operation cycle accounting.

A micro-op is a single row- or column-parallel MAGIC operation: the same
gate applied across every active lane in one clock cycle. NOR outputs must
be preset to 1 (the MAGIC initialization convention), which the engine
enforces by default so that compilers forgetting Init ops fail loudly.
"""

from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
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
    value: int = 1  # written bit for WRITE ops; INIT always writes 1
    lanes: tuple[int, ...] = field(init=False, repr=False, compare=False)  # sorted lane_mask

    def __post_init__(self):
        if self.output_line in self.input_lines:
            raise MicroOpError(f"output line {self.output_line} also listed as input")
        if len(set(self.input_lines)) != len(self.input_lines):
            raise MicroOpError("duplicate input lines")
        if not self.lane_mask:
            raise MicroOpError("empty lane mask")
        if self.kind is OpKind.NOR and not self.input_lines:
            raise MicroOpError("NOR needs at least one input line")
        if self.value not in (0, 1):
            raise MicroOpError(f"bit value must be 0 or 1, got {self.value}")
        object.__setattr__(self, "lanes", tuple(sorted(self.lane_mask)))


def nor_op(orientation: Orientation, inputs: tuple[int, ...], output: int,
           lanes) -> MicroOp:
    return MicroOp(OpKind.NOR, orientation, tuple(inputs), output, frozenset(lanes))


def init_op(orientation: Orientation, output: int, lanes) -> MicroOp:
    return MicroOp(OpKind.INIT, orientation, (), output, frozenset(lanes))


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

    def transposed(self) -> "CrossbarState":
        return CrossbarState(self.geom, self.cells.T.copy())

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
    for lane in (min(op.lane_mask), max(op.lane_mask)):
        if not 0 <= lane < n:
            raise MicroOpError(f"lane index {lane} outside [0,{n})")
    if op.kind is OpKind.NOR and len(op.input_lines) > cfg.fan_in_max:
        raise MicroOpError(
            f"fan-in {len(op.input_lines)} exceeds limit {cfg.fan_in_max}")


def apply_op_inplace(cells: np.ndarray, op: MicroOp, cfg: EngineConfig) -> None:
    """Apply one micro-op directly to a cell array (used by the machine model)."""
    lanes = np.asarray(op.lanes)
    # COLUMN ops are the ROW ops of the transpose; views keep this in-place
    plane = cells if op.orientation is Orientation.ROW else cells.T
    if op.kind is OpKind.NOR:
        if cfg.require_output_init and not (plane[lanes, op.output_line] == 1).all():
            raise UninitializedOutputError(
                f"NOR output line {op.output_line} has non-preset cells")
        inputs = plane[np.ix_(lanes, np.asarray(op.input_lines))]
        plane[lanes, op.output_line] = (inputs.max(axis=1) == 0).astype(np.uint8)
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


def format_op(op: MicroOp) -> str:
    """Serialize a micro-op as the operand field of a trace/event record."""
    parts = [
        f"kind={op.kind.value}",
        f"orient={op.orientation.value}",
        f"out={op.output_line}",
        f"in={','.join(map(str, op.input_lines)) or '-'}",
        f"lanes={','.join(map(str, op.lanes))}",
    ]
    if op.kind is OpKind.WRITE:
        parts.append(f"value={op.value}")
    return " ".join(parts)


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
