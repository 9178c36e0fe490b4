"""The event log's records: what each holds, its text, and reading it back.

A machine logs one :class:`Event` per occurrence. A record keeps its
fields, and its text is rendered only at the edge, when a schedule file
is written or a reader asks for it; a ``.events`` file reads back into
records with equal fields.
"""

import functools
import re
from typing import NamedTuple

from .engine import OpKind, Orientation, format_op, op_record, parse_op
from .parity import DiagnosisKind


def _waiting(text: str) -> str:
    """What a stall waited for: a critical op's output line or a line check."""
    if text not in ("op_out", "check"):
        raise ValueError(f"a stall waits for op_out or check, not {text!r}")
    return text


# The operand text of each action's records, a str.format template, and the
# type that reads each of its fields back from the text; "op", "load_check"
# and "writeback" records are rendered and read by their own functions below
_FORMATS = {
    "stall": ("{}={} wait={}", (_waiting, int, int)),
    "copy_old": ("line={} pc={}", (int, int)),
    "copy_new": ("line={} pc={}", (int, int)),
    "copy_row": ("line={} pc={}", (int, int)),
    "xor3": ("line={}", (int,)),
    "block_reset": ("block={},{}", (int, int)),
    "ecc_write": ("block={},{}", (int, int)),
    "check_row": ("index={} orient={.value}", (int, Orientation)),
    "xor3_tree": ("vectors={} levels={}", (int, int)),
    "syndrome_xor3": ("banks=leading,counter", ()),
    "zero_compare": ("blocks={}", (int,)),
    "read_syndrome": ("block={},{} result={.value}", (int, int, DiagnosisKind)),
    "correct_data": ("cell={},{}", (int, int)),
    "correct_check": ("block={},{} diag={}", (int, int, int)),
}


@functools.lru_cache(maxsize=128)
def _block_lanes(block_row: int, m: int) -> str:
    """The lanes of a block reset's Init records, the rows of the block row,
    as record text: the m records of a reset share it. The memo holds every
    block row at 1020/15 (68), which a widened run's resets cycle through."""
    return ",".join(map(str, range(block_row * m, block_row * m + m)))


def _op_text(*fields) -> str:
    """An op record's text: a program op's fields are (op, critical), a
    block reset's Init's (block row, block column, line offset, m)."""
    if len(fields) == 2:
        op, critical = fields
        return format_op(op) + (" critical=1" if critical else " critical=0")
    block_row, block_col, offset, m = fields
    return (op_record(OpKind.INIT, Orientation.ROW, block_col * m + offset, (),
                      _block_lanes(block_row, m)) + " critical=0 reset=1")


def _cells_text(footprint, line: int) -> str:
    """A ``load_check`` or ``writeback`` record's text: the check-bits that
    a critical op writing ``line`` touches, named by its footprint."""
    return "cells=" + footprint.names(line)


# the text of every action the machine logs, from a record's fields
_TEXT = {action: template.format for action, (template, _) in _FORMATS.items()}
_TEXT.update(op=_op_text, load_check=_cells_text, writeback=_cells_text)


def _op_fields(text: str) -> tuple:
    """The fields of an op record's text, as :func:`_op_text` lays them out."""
    op = parse_op(text)
    if not text.endswith(" reset=1"):
        return op, text.endswith(" critical=1")
    lanes = op.lane_set.lanes
    return (lanes[0] // len(lanes), *divmod(op.output_line, len(lanes)), len(lanes))


class Event(NamedTuple):
    """One scheduled occurrence: a unit doing an action for span cycles.

    A record keeps its fields, and its text is rendered at the edge:
    :meth:`to_line` is the one renderer of a record, :attr:`operands` the
    text of its fields alone. The fields of each action the machine logs
    are a tuple, laid out as its template in ``_FORMATS`` reads them, but
    for three actions that refer to what the machine already holds: an
    ``op`` record's are its ``MicroOp`` and whether it is critical, or, for
    a block reset's Init, which holds no op, the block, the line offset and
    m; a ``load_check`` or ``writeback`` record's are the critical op's
    :class:`checkmem.LaneFootprint` and written line, whose check-bit names
    are rendered only when the record is. ``fields`` is a str for a record
    of any other action, whose text is kept as it is.

    A named tuple, because a machine logs one per record: it is built in
    one call, where a frozen dataclass makes one ``object.__setattr__`` per
    field."""

    cycle: int
    unit: str
    action: str
    fields: tuple | str = ""
    span: int = 1

    @property
    def end(self) -> int:
        return self.cycle + self.span

    @property
    def operands(self) -> str:
        fields = self.fields
        return fields if type(fields) is str else _TEXT[self.action](*fields)

    def to_line(self) -> str:
        cycle, unit, action, fields, span = self
        # operands, inlined: a schedule file renders every record here
        ops = fields if type(fields) is str else _TEXT[action](*fields)
        if span != 1:
            ops = (ops + " " if ops else "") + f"cycles={span}"
        return f"{cycle}\t{unit}\t{action}\t{ops}"

    @classmethod
    def from_line(cls, line: str, written: tuple | None = None) -> "Event":
        """The record that renders ``line``. The text of an action the
        machine logs is read back into its fields; a ``load_check`` or
        ``writeback`` record's are ``written``, the footprint and line of
        the critical op it follows. Raises ValueError, naming the fault, if
        the text does not read back or the record does not render back to
        exactly ``line``: a line is never silently changed."""
        line = line.rstrip("\n")
        parts = line.split("\t", 3)
        if len(parts) < 4:
            raise ValueError(f"bad event record: {line!r}")
        action, text, span = parts[2], parts[3], 1
        head, _, last = text.rpartition(" ")
        if last.startswith("cycles="):
            text, span = head, int(last[len("cycles="):])
        if action == "op":
            fields = _op_fields(text)
        elif action in ("load_check", "writeback"):
            if written is None:
                raise ValueError(f"a {action} record that follows no critical op")
            fields = written
        elif action in _FORMATS:
            template, reads = _FORMATS[action]
            pieces = template.replace("{.value}", "{}").split("{}")
            match = re.fullmatch("(.*?)".join(map(re.escape, pieces)), text)
            if match is None:
                raise ValueError(f"bad {action} record: {text!r}")
            fields = tuple(read(value) for read, value in zip(reads, match.groups()))
        else:
            fields = text
        event = cls(int(parts[0]), parts[1], action, fields, span)
        if event.to_line() != line:
            raise ValueError(f"record does not render back to its own text: {line!r}")
        return event
