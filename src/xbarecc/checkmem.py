"""Check Memory (CMEM) architecture model and its timed protocols.

The CMEM extends the data crossbar (MEM) with m check-bit crossbars per
bank, processing crossbars that compute XOR3 off the critical path, and a
checking crossbar that compares syndromes to zero. The barrel shifters
that route MEM lines into per-block diagonal order appear only as the
diagonal index math of :func:`touched_check_cells` and in the transistor
count of :func:`device_counts`.

A critical operation (one that writes ECC-covered data) runs the
cancel/perform/add protocol: copy old bits out, execute in MEM, copy new
bits out, fold old XOR new XOR stored-check inside a processing crossbar,
and write the result back. The MEM is occupied for only the three transfer
/execute cycles; the 8-cycle XOR3 is hidden in the processing crossbar.
"""

import functools
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .engine import (
    CrossbarState,
    EngineConfig,
    MicroOp,
    OpKind,
    Orientation,
    _set_field,
    apply_op_inplace,
    format_op,
    lane_set,
    op_record,
    validate_op,
)
from .geometry import Bank, Geometry, GeometryError
from .parity import (
    BlockParity,
    Diagnosis,
    DiagnosisKind,
    DiagonalConflictError,
    compute_syndrome,
    decode_syndrome,
    diag_parity,
    encode_block,
)

PC_ROWS = 11  # 3 operand rows (old data, new data, old check) + 8 XOR3 scratch
MAX_STEP_CYCLES = 1_000  # per timing step; config files and schedule headers set it
_BANKS = tuple(Bank)  # first index of CheckMem.planes -> Bank
_BANK_TAGS = tuple(bank.value[0].upper() for bank in _BANKS)  # event-log prefix


@dataclass(frozen=True)
class TimingModel:
    """Cycle costs of the CMEM protocol steps. All configurable, each in
    [1, MAX_STEP_CYCLES]."""

    xor3_cycles: int = 8
    copy_cycles: int = 1
    writeback_cycles: int = 1
    controller_read_cycles: int = 1
    correction_write_cycles: int = 1
    zero_compare_cycles: int = 1

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not 1 <= getattr(self, name) <= MAX_STEP_CYCLES:
                raise ValueError(f"{name} must be in [1, {MAX_STEP_CYCLES}]")

    @property
    def mem_cycles_per_critical(self) -> int:
        """MEM occupancy of one critical op: old copy, execute, new copy."""
        return 2 * self.copy_cycles + 1

    @property
    def pc_cycles_per_critical(self) -> int:
        """Processing-crossbar occupancy: transfers + XOR3 + writeback."""
        return 2 * self.copy_cycles + 1 + self.xor3_cycles + self.writeback_cycles


def xor3_tree_levels(m: int) -> int:
    """Levels of a ternary XOR tree reducing m vectors to one."""
    levels = 0
    width = m
    while width > 1:
        width = math.ceil(width / 3)
        levels += 1
    return levels


def check_chain_cycles(m: int, tm: TimingModel) -> int:
    """Clean-path latency of checking one row/column of blocks.

    m line copies, the XOR3 reduction tree, one XOR3 against the stored
    parity, and the zero compare. Corrections cost extra per dirty block.
    """
    return (m * tm.copy_cycles
            + (xor3_tree_levels(m) + 1) * tm.xor3_cycles
            + tm.zero_compare_cycles)


class Event(NamedTuple):
    """One scheduled occurrence: a unit doing an action for span cycles.

    A named tuple, because a machine logs one per record: it is built in
    one call, where a frozen dataclass makes one ``object.__setattr__`` per
    field."""

    cycle: int
    unit: str
    action: str
    operands: str = ""
    span: int = 1

    @property
    def end(self) -> int:
        return self.cycle + self.span

    def to_line(self) -> str:
        ops = self.operands
        if self.span != 1:
            ops = (ops + " " if ops else "") + f"cycles={self.span}"
        return f"{self.cycle}\t{self.unit}\t{self.action}\t{ops}"

    @classmethod
    def from_line(cls, line: str) -> "Event":
        parts = line.rstrip("\n").split("\t", 3)
        if len(parts) < 3:
            raise ValueError(f"bad event record: {line!r}")
        cycle, unit, action = int(parts[0]), parts[1], parts[2]
        operands = parts[3] if len(parts) > 3 else ""
        span = 1
        toks = operands.split()
        if toks and toks[-1].startswith("cycles="):
            span = int(toks[-1].split("=", 1)[1])
            operands = " ".join(toks[:-1])
        return cls(cycle, unit, action, operands, span)


def run_stats(events) -> tuple[int, list[int]]:
    """A run's stall cycles and the ascending indices of the processing-
    crossbar pairs that did any work, read off its events: every stall is
    logged as one ``SCHED stall`` record, and every pair taken logs at
    least one record on its unit ``PC<index>``."""
    stall = sum(ev.span for ev in events if ev.action == "stall" and ev.unit == "SCHED")
    units = {ev.unit for ev in events}
    return stall, sorted(int(unit[2:]) for unit in units if unit.startswith("PC"))


def _append(busy: list[int], start: int, end: int) -> None:
    """Add the window [start, end), which starts at or after every busy one,
    merged with the last if that one ends at start."""
    if busy and busy[-1] == start:
        busy[-1] = end
    else:
        busy += (start, end)


class UnitTimeline:
    """Busy windows per unit, each a sorted flat ``[start, end, start, end, ...]``
    list of disjoint half-open windows. MEM, CTRL, CHECK and the pairs are
    booked in order (:meth:`reserve`); check-bit crossbar reads and writebacks
    may fill an earlier idle gap (:meth:`book`). :meth:`first_free` is how a
    unit waits."""

    def __init__(self):
        self._windows: defaultdict[str, list[int]] = defaultdict(list)

    def next_free(self, unit: str) -> int:
        windows = self._windows.get(unit)
        return windows[-1] if windows else 0

    def reserve(self, unit: str, start: int, span: int) -> None:
        windows = self._windows[unit]
        free = windows[-1] if windows else 0
        if start < free:
            raise RuntimeError(f"unit {unit} reserved at {start} before its free cycle {free}")
        _append(windows, start, start + span)

    def book(self, units, t: int, windows) -> None:
        """Book every (offset, span) window [t + offset, t + offset + span) on
        every unit, as :meth:`first_free` searches them; each must be idle.
        A window at or after the unit's last busy cycle, as every check and
        reset books, is appended without a search."""
        # one start and end object per window, shared by every unit's list
        spans = [(t + offset, t + offset + span) for offset, span in windows]
        for unit in units:
            busy = self._windows[unit]
            for start, end in spans:
                if not busy or start >= busy[-1]:
                    _append(busy, start, end)
                    continue
                i = bisect_right(busy, start)  # odd: start lies in a busy window
                if i % 2 or (i < len(busy) and end > busy[i]):
                    raise RuntimeError(
                        f"unit {unit} double-booked at cycle {start if i % 2 else busy[i]}")
                # merge with a window that ends at start or starts at end
                lo = i - (i > 0 and busy[i - 1] == start)
                hi = i + (i < len(busy) and busy[i] == end)
                busy[lo:hi] = [start] * (lo == i) + [end] * (hi == i)

    def first_free(self, units, start: int, windows) -> int:
        """Least t >= start at which every (offset, span) window
        [t + offset, t + offset + span) is idle on every unit. A window that
        overlaps a busy one overlaps it until it starts at that window's end,
        so the search jumps straight there."""
        t, moved = start, True
        while moved:
            moved = False
            for busy in filter(None, map(self._windows.get, units)):
                for offset, span in windows:
                    i = bisect_right(busy, t + offset)
                    if i % 2 or (i < len(busy) and t + offset + span > busy[i]):
                        t, moved = busy[i | 1] - offset, True  # that window's end
        return t


def written_cells(op: MicroOp) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the cells an op writes, in ascending lane order; none for READ."""
    lanes = np.array(op.lane_set.lanes if op.kind is not OpKind.READ else (), dtype=np.intp)
    line = np.full_like(lanes, op.output_line)
    return (lanes, line) if op.orientation is Orientation.ROW else (line, lanes)


def touched_check_cells(rows: np.ndarray, cols: np.ndarray,
                        geom: Geometry) -> np.ndarray:
    """Flat indices into :attr:`CheckMem.planes` of the check-bits that
    writing the cells (rows, cols) of :func:`written_cells` touches.

    The leading half comes first, entry k of each half belonging to the
    k-th written cell. Raises :class:`DiagonalConflictError` if one op would
    touch a check-bit twice; row/column-parallel ops never do, so this is an
    internal guard.
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


class LaneFootprint:
    """The check-bits that a row- or column-parallel op on one lane set
    touches, for whichever line it writes; :func:`lane_footprint` builds it
    once per (geometry, orientation, lane set).

    The lanes are grouped by their offset r within a block. Writing the line
    at offset j of its block puts group r's cells on leading diagonal
    (r + j) mod m and on counter diagonal (r - j) mod m, or (j - r) mod m for
    a COLUMN op: one check-bit crossbar per bank, and in it one check-bit
    per block of the group. A line therefore touches a check-bit twice
    exactly when line 0 does, so the :class:`DiagonalConflictError` guard of
    :func:`touched_check_cells` runs once, on line 0, when it is built.
    """

    def __init__(self, geom: Geometry, orientation: Orientation, lane_mask: frozenset[int]):
        m, nb = geom.m, geom.blocks_per_side
        self._m, self._nb = m, nb
        self._row = orientation is Orientation.ROW
        self._sign = sign = 1 if self._row else -1
        sorted_lanes = lane_set(lane_mask).lanes
        # one lane: plain ints and strings, where numpy pays per call
        self._one_lane = len(sorted_lanes) == 1
        blocks: dict[int, list[int]] = {}
        for lane in sorted_lanes:
            blocks.setdefault(lane % m, []).append(lane // m)
        text = [str(b) for b in range(nb)]
        # (the leading and the counter diagonal of the group on line 0, its
        # block numbers as text), by r and, within a group, by block
        self._groups = tuple((r, sign * r % m, tuple(text[b] for b in bs))
                             for r, bs in sorted(blocks.items()))
        lanes = np.array(sorted_lanes, dtype=np.intp)
        # a check-bit's flat index is crossbar * nb * nb + block_col * nb + block_row,
        # and a ROW op's line picks the block column, its lanes the block rows:
        # [bank, lane] arrays such that a lane's check-bit on line q * m + j is
        # ((diagonal + step * j) % m) * nb * nb + offset + q * line_stride
        self._line_stride, block_stride = (nb, 1) if self._row else (1, nb)
        residues, offsets = lanes % m, lanes // m * block_stride
        self._diagonals = np.stack([residues, sign * residues])
        self._steps = np.array([[1], [-sign]])
        self._offsets = np.stack([offsets, offsets + m * nb * nb])  # counter crossbars follow
        self._offset = int(offsets[0])  # the first lane's, all that one lane needs
        # crossbar planes[b, d], at index b * m + d, names its check-bits
        # "C3@<block row>,<block column>" in the event log
        self._heads = tuple(f"{tag}{d}@" for tag in _BANK_TAGS for d in range(m))
        line = np.zeros_like(lanes)
        touched_check_cells(*((lanes, line) if self._row else (line, lanes)), geom)

    def at(self, line: int) -> tuple[list[int] | np.ndarray, list[int], str]:
        """What writing ``line`` touches: the check-bits as flat indices into
        :attr:`CheckMem.planes`, leading bank first and each bank in ascending
        lane order, as :func:`touched_check_cells` lists them (a list of two
        for one lane, else a ``[bank, lane]`` array); the touched check-bit
        crossbars, ascending; and the check-bits' names, counter bank first,
        each bank by (diagonal, block row, block column), as the event log
        lists them."""
        m, nb = self._m, self._nb
        q, j = divmod(line, m)
        step, base = self._sign * j, q * self._line_stride
        # the line's block is the column of a ROW op's names, the row of a COLUMN op's
        block = str(q)
        before, after = ("", "," + block) if self._row else (block + ",", "")
        if self._one_lane:  # one block and one check-bit per bank
            ((lead, counter, (text,)),) = self._groups
            lead, counter = (lead + j) % m, m + (counter - step) % m
            keys = [lead * nb * nb + base + self._offset, counter * nb * nb + base + self._offset]
            names = (f"{self._heads[counter]}{before}{text}{after};"
                     f"{self._heads[lead]}{before}{text}{after}")
            return keys, [lead, counter], names
        crossbars = []
        for lead, counter, texts in self._groups:
            crossbars += (((lead + j) % m, texts), (m + (counter - step) % m, texts))
        crossbars.sort()  # distinct: one crossbar per bank per group
        half = len(self._groups)
        names = []
        for crossbar, texts in crossbars[half:] + crossbars[:half]:
            first = self._heads[crossbar] + before
            names.append(first + (after + ";" + first).join(texts) + after)
        touched = (self._diagonals + j * self._steps) % m
        touched *= nb * nb
        touched += self._offsets + base
        return touched, [crossbar for crossbar, _ in crossbars], ";".join(names)

    def fold(self, planes: np.ndarray, touched, delta) -> None:
        """XOR ``delta``, the old ^ new bit of each written cell in ascending
        lane order, into the check-bits ``touched`` (from :meth:`at`) of both
        banks."""
        flat = planes.reshape(-1)
        if self._one_lane:  # two scalar updates, not a gather of two
            for key in touched:
                flat[key] ^= delta
        else:
            flat[touched] ^= delta

    def latest(self, ready: np.ndarray, touched) -> int:
        """The greatest entry of ``ready``, shaped like the planes, at the
        check-bits ``touched``."""
        if self._one_lane:  # two scalar reads, not a gather of two
            return max(map(ready.item, touched))
        return int(ready.take(touched).max())


@functools.lru_cache(maxsize=4)
def lane_footprint(geom: Geometry, orientation: Orientation,
                   lane_mask: frozenset[int]) -> LaneFootprint:
    """The :class:`LaneFootprint` of a lane set, memoised by value as
    :func:`engine.lane_set` is: a schedule's critical ops share one lane
    set. An entry holds ~50 bytes per lane, ~170 per offset within a block
    that its lanes take and ~120 per offset in a block (the crossbar
    names): ~3 KB for one lane and ~48 KB for every lane at 1020/15,
    ~0.23 MB for every lane at 4095/3 and at most ~1.5 MB at 4095/4095. So
    the memo holds at most ~6 MB, besides the frozen keys, which the ops
    keep alive anyway."""
    return LaneFootprint(geom, orientation, lane_mask)


def block_spans(cells: np.ndarray, m: int) -> np.ndarray:
    """Read-only view ``[block_row, block_col, span]`` of the m x m blocks of
    the n x n ``cells``, each span running from a block's first cell to its
    last with rows n apart, as :func:`diag_parity` reads it with pitch n.
    C-ordered cells are not copied; any other layout is copied to C order."""
    cells = np.ascontiguousarray(cells)
    n = cells.shape[1]
    return as_strided(cells, (n // m, n // m, (m - 1) * n + m),
                      (m * cells.strides[0], m * cells.strides[1], cells.strides[1]),
                      writeable=False)


class CheckMem:
    """Check-bit storage: m crossbars of (n/m) x (n/m) cells per bank.

    Cell (a, b) of crossbar d in a bank holds the check-bit for diagonal d
    of the block a block-columns from the left and b block-rows from the
    top, so :attr:`planes` is indexed [bank, diag, block_col, block_row],
    bank 0 being :attr:`Bank.LEADING`. Its flat index is the one address of
    a check-bit.
    """

    def __init__(self, geom: Geometry, planes: np.ndarray):
        nb = geom.blocks_per_side
        if planes.shape != (2, geom.m, nb, nb):
            raise GeometryError(
                f"planes shaped {planes.shape}, expected {(2, geom.m, nb, nb)}")
        self.geom = geom
        self.planes = np.ascontiguousarray(planes, dtype=np.uint8)

    @classmethod
    def from_state(cls, state: CrossbarState) -> "CheckMem":
        """Encode every block of the given memory contents."""
        geom = state.geom
        sums = diag_parity(block_spans(state.cells, geom.m), geom.m, geom.n)
        return cls(geom, sums.transpose(2, 3, 1, 0))  # [br, bc, bank, d] -> [bank, d, bc, br]

    def parity(self, block_row: int, block_col: int) -> BlockParity:
        lead, ctr = self.planes[:, :, block_col, block_row].tolist()
        return BlockParity(tuple(lead), tuple(ctr))

    def flip_bit(self, bank: Bank, diag: int, block_row: int, block_col: int) -> None:
        self.planes[_BANKS.index(bank), diag, block_col, block_row] ^= 1

    def copy(self) -> "CheckMem":
        return CheckMem(self.geom, self.planes.copy())

    def __eq__(self, other) -> bool:
        return (isinstance(other, CheckMem)
                and self.geom == other.geom
                and np.array_equal(self.planes, other.planes))


@dataclass(frozen=True, slots=True, init=False)
class BlockReport:
    """Diagnosis of one block from one check pass."""

    block_row: int
    block_col: int
    diagnosis: Diagnosis

    def __init__(self, block_row: int, block_col: int, diagnosis: Diagnosis):
        # a line check builds one per block; a generated __init__ looks the
        # setter up once per field
        _set_field(self, "block_row", block_row)
        _set_field(self, "block_col", block_col)
        _set_field(self, "diagnosis", diagnosis)


@dataclass(frozen=True)
class CheckSummary:
    """Aggregated result of a full-memory check."""

    clean: int
    corrected: int
    uncorrectable: int
    reports: tuple[BlockReport, ...]

    @classmethod
    def of(cls, reports) -> "CheckSummary":
        """The reports and their counts by outcome, taken in one pass."""
        dirty = [r.diagnosis.kind for r in reports
                 if r.diagnosis.kind is not DiagnosisKind.CLEAN]
        uncorrectable = dirty.count(DiagnosisKind.UNCORRECTABLE)
        return cls(len(reports) - len(dirty), len(dirty) - uncorrectable,
                   uncorrectable, tuple(reports))


class Machine:
    """One MEM + CMEM instance with its unit timelines and event log.

    Functional state and cycle accounting advance together; the timed
    pipeline and the plain codec agree on final states by construction,
    which the tests cross-check.
    """

    def __init__(self, state: CrossbarState, timing: TimingModel | None = None,
                 pc_pairs: int = 3, *, _checkmem: "CheckMem | None" = None):
        """A machine holding a copy of ``state``, its check-bits encoded from
        it. ``_checkmem`` is :meth:`blank`'s path: the machine then takes
        ``state`` itself, with those check-bits."""
        if pc_pairs < 1:
            raise ValueError(f"need at least one processing-crossbar pair, got {pc_pairs}")
        self.geom = state.geom
        if _checkmem is None:
            self.state, self.checkmem = state.copy(), CheckMem.from_state(state)
        else:
            self.state, self.checkmem = state, _checkmem
        self.timing = timing or TimingModel()
        self.engine_cfg = EngineConfig()
        self.timeline = UnitTimeline()
        self.events: list[Event] = []
        # processing-crossbar pairs, one crossbar per bank each
        self._pc_units = tuple(f"PC{i}" for i in range(pc_pairs))
        m = self.geom.m
        # check-bit crossbar planes[b, d] at index b * m + d
        self._cbx_units = tuple(f"CBX:{bank.value}:{d}"
                                for bank in _BANKS for d in range(m))
        # first cycle at which each check-bit is readable again, indexed as
        # checkmem.planes; int32, so a cycle of 2**31 or more raises OverflowError
        self._check_ready = np.zeros(self.checkmem.planes.shape, dtype=np.int32)

    @classmethod
    def blank(cls, geom: Geometry, **kwargs) -> "Machine":
        """An all-zero machine. All-zero check-bits are the encoding of
        all-zero memory, so nothing is copied or encoded, and the zeroed
        pages are touched only where the machine writes."""
        nb = geom.blocks_per_side
        return cls(CrossbarState.zeros(geom), **kwargs, _checkmem=CheckMem(
            geom, np.zeros((2, geom.m, nb, nb), dtype=np.uint8)))

    def _issue(self, earliest: int, floor: int, cbx_units, windows, mem_span: int,
               pair_span: int, waiting: str) -> tuple[int, int]:
        """Issue a critical op or a line check at t, the first cycle at or after
        ``earliest``, ``floor``, MEM's free cycle and some pair's at which the
        (offset, span) ``windows`` are idle on ``cbx_units``. A wait is logged
        as one ``SCHED stall`` record, ``<waiting> wait=<cycles>``. Holds MEM
        for ``mem_span`` cycles and the lowest pair free at t for
        ``pair_span``, books the windows and returns (t, pair)."""
        timeline = self.timeline
        mem_ready = max(earliest, timeline.next_free("MEM"))
        frees = list(map(timeline.next_free, self._pc_units))
        t = timeline.first_free(cbx_units, max(mem_ready, floor, min(frees)), windows)
        if t > mem_ready:
            self.log(mem_ready, "SCHED", "stall", f"{waiting} wait={t - mem_ready}",
                     span=t - mem_ready)
        timeline.reserve("MEM", t, mem_span)
        pair = next(i for i, free in enumerate(frees) if free <= t)
        timeline.reserve(self._pc_units[pair], t, pair_span)
        timeline.book(cbx_units, t, windows)
        return t, pair

    @property
    def horizon(self) -> int:
        """One past the last busy cycle (total cycles so far)."""
        return max((ev.end for ev in self.events), default=0)

    def log(self, cycle: int, unit: str, action: str, operands: str = "",
            span: int = 1) -> None:
        self.events.append(Event(cycle, unit, action, operands, span))

    def inject_data_flip(self, row: int, col: int) -> None:
        """Soft error: flip one MEM cell without touching the check-bits."""
        self.geom.check_cell(row, col)
        self.state.cells[row, col] ^= 1

    def inject_check_flip(self, bank: Bank, diag: int, block_row: int,
                          block_col: int) -> None:
        """Soft error: flip one stored check-bit, diagonal ``diag`` of the
        block's ``bank``."""
        self.geom.check_block(block_row, block_col)
        if not 0 <= diag < self.geom.m:
            raise GeometryError(f"diagonal {diag} outside [0,{self.geom.m})")
        self.checkmem.flip_bit(bank, diag, block_row, block_col)

    def block_consistent(self, block_row: int, block_col: int) -> bool:
        return (encode_block(self.state.block(block_row, block_col))
                == self.checkmem.parity(block_row, block_col))

    # ------------------------------------------------------------------
    # operations

    def noncritical_op(self, op: MicroOp, earliest: int = 0) -> int:
        """Plain MAGIC op: one MEM cycle, no ECC involvement."""
        validate_op(self.state, op, self.engine_cfg)
        t = max(earliest, self.timeline.next_free("MEM"))
        self.timeline.reserve("MEM", t, 1)
        apply_op_inplace(self.state.cells, op, self.engine_cfg)
        self.log(t, "MEM", "op", format_op(op) + " critical=0")
        return t

    def critical_op(self, op: MicroOp, earliest: int = 0) -> int:
        """Run the cancel/perform/add protocol around one MAGIC op; returns
        its issue cycle."""
        validate_op(self.state, op, self.engine_cfg)
        tm = self.timing
        c, x, wb = tm.copy_cycles, tm.xor3_cycles, tm.writeback_cycles
        line = op.output_line
        footprint = lane_footprint(self.geom, op.orientation, op.lane_mask)
        touched, crossbars, diags = footprint.at(line)

        # one parallel line access per crossbar, even when several blocks
        # along the written line share a diagonal index; the check-bits are
        # read at t + c, once every write to them has landed, and written
        # back at t + back
        back = 2 * c + 1 + x
        t, pair = self._issue(
            earliest, footprint.latest(self._check_ready, touched) - c,
            [self._cbx_units[u] for u in crossbars], ((c, c), (back, wb)),
            tm.mem_cycles_per_critical, tm.pc_cycles_per_critical, f"op_out={line}")
        write_at = t + back
        self._check_ready.put(touched, write_at + wb)  # put indexes the flat view

        # functional effect: each touched check-bit becomes old ^ new ^ stored;
        # a copy of the old bits, since a contiguous lane set reads a view
        cells, index = self.state.cells, op.lane_set.index
        plane = cells if op.orientation is Orientation.ROW else cells.T
        old = plane[index, line].copy()
        apply_op_inplace(cells, op, self.engine_cfg)
        footprint.fold(self.checkmem.planes, touched, old ^ plane[index, line])

        unit, copy, bits = f"PC{pair}", f"line={line} pc={pair}", f"cells={diags}"
        self.events += (
            Event(t, "MEM", "copy_old", copy, c),
            Event(t + c, "MEM", "op", format_op(op) + " critical=1"),
            Event(t + c, unit, "load_check", bits, c),
            Event(t + c + 1, "MEM", "copy_new", copy, c),
            Event(t + 2 * c + 1, unit, "xor3", f"line={line}", x),
            Event(write_at, unit, "writeback", bits, wb),
        )
        return t

    def block_ecc_reset(self, block_row: int, block_col: int,
                        earliest: int = 0) -> int:
        """Initialize a whole block to 1 and write its check-bits directly.

        Resetting a full block sidesteps the XOR3 pipeline: the parity of an
        all-ones odd-sized block is all-ones in both banks, so the
        controller writes it in a single pass.
        """
        m = self.geom.m
        self.geom.check_block(block_row, block_col)
        t0 = max(earliest, self.timeline.next_free("MEM"))
        base_row, base_col = block_row * m, block_col * m
        lanes = ",".join(map(str, range(base_row, base_row + m)))
        self.log(t0, "SCHED", "block_reset", f"block={block_row},{block_col}")
        # m row-parallel Init ops, one per line of the block, one cycle each,
        # written as one slice and logged from their fields
        self.timeline.reserve("MEM", t0, m)
        self.state.cells[base_row:base_row + m, base_col:base_col + m] = 1
        for lc in range(m):
            self.log(t0 + lc, "MEM", "op", op_record(
                OpKind.INIT, Orientation.ROW, base_col + lc, (), lanes)
                + " critical=0 reset=1")
        self.checkmem.planes[:, :, block_col, block_row] = 1
        wb = self.timing.writeback_cycles
        write = ((0, wb),)
        t = self.timeline.first_free(
            self._cbx_units, max(t0 + m, self.timeline.next_free("CTRL")), write)
        self.timeline.book(self._cbx_units, t, write)
        # the block's check-bits are readable once the write has landed, and
        # never earlier than a writeback still in flight to them
        ready = self._check_ready[:, :, block_col, block_row]
        np.maximum(ready, t + wb, out=ready)
        self.timeline.reserve("CTRL", t, wb)
        self.log(t, "CTRL", "ecc_write", f"block={block_row},{block_col}", span=wb)
        return t + wb

    def check_block_row(self, index: int, orientation: Orientation = Orientation.ROW,
                        earliest: int = 0) -> tuple[list[BlockReport], int]:
        """Check one row (or column) of blocks; corrects what it can.

        Returns the per-block reports and the cycle after the check (and any
        corrections) completed. The MEM is released after the m copy cycles.
        """
        geom, tm = self.geom, self.timing
        m, nb = geom.m, geom.blocks_per_side
        if not 0 <= index < nb:
            raise GeometryError(f"block row index {index} outside [0,{nb})")
        c, x, zc = tm.copy_cycles, tm.xor3_cycles, tm.zero_compare_cycles
        levels = xor3_tree_levels(m)

        # the stored check-bits are read at t + syn, the compare is at t + syn + x
        syn = m * c + levels * x
        t, pair = self._issue(earliest, self.timeline.next_free("CHECK") - syn - x,
                              self._cbx_units, ((syn, c),), m * c, syn + x, f"check={index}")
        syn_at = t + syn
        zero_at = syn_at + x
        self.timeline.reserve("CHECK", zero_at, zc)

        self.log(t, "SCHED", "check_row",
                 f"index={index} orient={orientation.value}")
        for k in range(m):
            line = index * m + k
            self.log(t + k * c, "MEM", "copy_row", f"line={line} pc={pair}", span=c)
        if levels:
            self.log(t + m * c, f"PC{pair}", "xor3_tree",
                     f"vectors={m} levels={levels}", span=levels * x)
        self.log(syn_at, f"PC{pair}", "syndrome_xor3", "banks=leading,counter", span=x)
        self.log(zero_at, "CHECK", "zero_compare", f"blocks={nb}", span=zc)

        # functional: the fresh check-bits of the whole line in one gather,
        # taken before any correction writes a cell, then per block a
        # syndrome, a decode and, if dirty, a correction
        reports: list[BlockReport] = []
        done = zero_at + zc
        by_row = orientation is Orientation.ROW
        spans, planes = block_spans(self.state.cells, m), self.checkmem.planes
        spans, stored = ((spans[index], planes[..., index]) if by_row
                         else (spans[:, index], planes[:, :, index]))
        # both [block][bank][diag], read once
        fresh = diag_parity(spans, m, geom.n).tolist()
        stored = stored.transpose(2, 0, 1).tolist()
        for k, ((lead, ctr), (s_lead, s_ctr)) in enumerate(zip(fresh, stored)):
            diag = decode_syndrome(compute_syndrome(BlockParity(tuple(lead), tuple(ctr)),
                                                    BlockParity(tuple(s_lead), tuple(s_ctr))))
            if diag.kind is DiagnosisKind.CLEAN:
                reports.append(BlockReport(index, k, diag) if by_row
                               else BlockReport(k, index, diag))
                continue
            br, bc = (index, k) if by_row else (k, index)
            reports.append(BlockReport(br, bc, diag))
            read_at = max(done, self.timeline.next_free("CTRL"))
            self.timeline.reserve("CTRL", read_at, tm.controller_read_cycles)
            self.log(read_at, "CTRL", "read_syndrome",
                     f"block={br},{bc} result={diag.kind.value}",
                     span=tm.controller_read_cycles)
            done = read_at + tm.controller_read_cycles
            if diag.kind is DiagnosisKind.UNCORRECTABLE:
                continue
            if diag.kind is DiagnosisKind.DATA_ERROR:
                row = br * geom.m + diag.i
                col = bc * geom.m + diag.j
                self.state.cells[row, col] ^= 1
                write_at = max(done, self.timeline.next_free("MEM"))
                self.timeline.reserve("MEM", write_at, tm.correction_write_cycles)
                self.log(write_at, "MEM", "correct_data", f"cell={row},{col}",
                         span=tm.correction_write_cycles)
            else:
                self.checkmem.flip_bit(diag.bank, diag.idx, br, bc)
                bank = _BANKS.index(diag.bank)
                unit = self._cbx_units[bank * m + diag.idx]
                write = ((0, tm.correction_write_cycles),)
                write_at = self.timeline.first_free((unit,), done, write)
                self.timeline.book((unit,), write_at, write)
                # the corrected bit is readable once its write has landed,
                # and never earlier than a writeback still in flight to it
                ready, bit = self._check_ready, (bank, diag.idx, bc, br)
                ready[bit] = max(ready[bit], write_at + tm.correction_write_cycles)
                self.log(write_at, unit, "correct_check",
                         f"block={br},{bc} diag={diag.idx}",
                         span=tm.correction_write_cycles)
            done = write_at + tm.correction_write_cycles
        return reports, done

    def full_memory_check(self, orientation: Orientation = Orientation.ROW,
                          earliest: int = 0) -> CheckSummary:
        """Sweep every row of blocks; chains pipeline through the PC pairs."""
        reports: list[BlockReport] = []
        for index in range(self.geom.blocks_per_side):
            row_reports, _ = self.check_block_row(index, orientation, earliest)
            reports.extend(row_reports)
        return CheckSummary.of(reports)


# ----------------------------------------------------------------------
# device counts

@dataclass(frozen=True)
class DeviceCountRow:
    unit: str
    memristors: int
    transistors: int
    expression: str


@dataclass(frozen=True)
class DeviceCounts:
    rows: tuple[DeviceCountRow, ...]

    @property
    def total_memristors(self) -> int:
        return sum(r.memristors for r in self.rows)

    @property
    def total_transistors(self) -> int:
        return sum(r.transistors for r in self.rows)


def device_counts(n: int, m: int, k: int) -> DeviceCounts:
    """Memristor/transistor counts of every unit for an n x n crossbar with
    m x m blocks and k processing-crossbar pairs."""
    Geometry(n, m)  # validates m | n, m odd
    if k < 1:
        raise ValueError(f"need at least one processing-crossbar pair, got {k}")
    nb = n // m
    rows = (
        DeviceCountRow("Data (MEM)", n * n, 0, "n x n"),
        DeviceCountRow("Check-Bits", 2 * m * nb * nb, 0, "2 x m x (n/m)^2"),
        DeviceCountRow("Processing XBs", 2 * PC_ROWS * k * n, 0, "2 x 11 x k x n"),
        DeviceCountRow("Checking XB", 2 * n, 0, "2 x n"),
        DeviceCountRow("Shifters", 0, 4 * n * m, "4 x n x m"),
        DeviceCountRow("Connection Unit", 0, 2 * n * (k + 4), "2 x n x (k+4)"),
    )
    return DeviceCounts(rows)
