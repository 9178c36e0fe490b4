"""Check Memory (CMEM) architecture model and its timed protocols.

The CMEM extends the data crossbar (MEM) with m check-bit crossbars per
bank, processing crossbars that compute XOR3 off the critical path, and a
checking crossbar that compares syndromes to zero. The barrel shifters
that route MEM lines into per-block diagonal order appear only as the
diagonal index math of :class:`LaneFootprint` and in the transistor
count of :func:`device_counts`.

A critical operation (one that writes ECC-covered data) runs the
cancel/perform/add protocol: copy old bits out, execute in MEM, copy new
bits out, fold old XOR new XOR stored-check inside a processing crossbar,
and write the result back. The MEM is occupied for only the three transfer
/execute cycles; the 8-cycle XOR3 is hidden in the processing crossbar.
"""

import functools
import math
import operator
import struct
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import NamedTuple

import numpy as np

from .engine import (
    CrossbarState,
    MicroOp,
    OpKind,
    Orientation,
    apply_op_inplace,
    format_op,
    lane_set,
    op_record,
    validate_op,
)
from .geometry import Bank, Geometry, GeometryError
from .parity import (
    CLEAN,
    SWEEP_GATHER_BYTES,
    UNCORRECTABLE,
    BlockParity,
    Diagnosis,
    DiagnosisKind,
    compute_syndrome,
    decode_syndrome,
    diag_parity,
    encode_block,
    zero_syndrome,
)

PC_ROWS = 11  # 3 operand rows (old data, new data, old check) + 8 XOR3 scratch
MAX_STEP_CYCLES = 1_000  # per timing step; config files and schedule headers set it
CYCLE_END = 2**31  # every step ends before it: check-bit readiness is int32
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


def _check_end(end: int) -> None:
    """Raise OverflowError, naming the cycle, for a step that could end at or
    past :data:`CYCLE_END`; a step calls this before it books, logs or writes
    anything, so a step that raises changes nothing."""
    if end >= CYCLE_END:
        raise OverflowError(f"a step would end at cycle {end}; the last cycle a step "
                            f"may end at is {CYCLE_END - 1} (check-bit readiness is int32)")


class RunStats(NamedTuple):
    """A run's statistics, as :func:`run_stats` reads them off its events."""

    stall_cycles: int
    pairs: list[int]  # ascending indices of the pairs that did any work
    corrected: int  # dirty blocks whose error was located and corrected
    uncorrectable: int  # dirty blocks left as they were


def run_stats(events) -> RunStats:
    """A run's statistics, read off its events' units and action names alone:
    every stall is logged as one ``SCHED stall`` record, every pair taken logs
    at least one record on its unit ``PC<index>``, and every dirty block a
    check finds logs one ``read_syndrome`` record, followed by one
    ``correct_data`` or ``correct_check`` record if its error was located."""
    stall = sum(ev.span for ev in events if ev.action == "stall" and ev.unit == "SCHED")
    units = {ev.unit for ev in events}
    actions = Counter(ev.action for ev in events)
    corrected = actions["correct_data"] + actions["correct_check"]
    return RunStats(stall, sorted(int(unit[2:]) for unit in units if unit.startswith("PC")),
                    corrected, actions["read_syndrome"] - corrected)


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


class LaneFootprint:
    """The check-bits that a row- or column-parallel op on one lane set
    touches, for whichever line it writes; :func:`lane_footprint` builds it
    once per (geometry, orientation, lane set).

    The lanes are grouped by their offset r within a block. Writing the line
    at offset j of its block puts group r's cells on leading diagonal
    (r + j) mod m and on counter diagonal (r - j) mod m, or (j - r) mod m for
    a COLUMN op: one check-bit crossbar per bank, and in it one check-bit
    per block of the group. An op's lanes are distinct, so no check-bit is
    touched twice: lanes in different blocks touch different blocks, and
    lanes in one block differ in r, so their diagonals differ in both banks.
    """

    def __init__(self, geom: Geometry, orientation: Orientation, lane_mask: frozenset[int]):
        m, nb = geom.m, geom.blocks_per_side
        self._m, self._nb = m, nb
        self._row = orientation is Orientation.ROW
        self._sign = sign = 1 if self._row else -1
        sorted_lanes = lane_set(lane_mask).lanes
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
        # crossbar planes[b, d], at index b * m + d, names its check-bits
        # "C3@<block row>,<block column>" in the event log
        self._heads = tuple(f"{tag}{d}@" for tag in _BANK_TAGS for d in range(m))

    def at(self, line: int) -> tuple[np.ndarray, list[int], str]:
        """What writing ``line`` touches: the check-bits as a ``[bank, lane]``
        array of flat indices into :attr:`CheckMem.planes`, leading bank first
        and each bank in ascending lane order; the touched check-bit
        crossbars, ascending; and the check-bits' names, counter bank first,
        each bank by (diagonal, block row, block column), as the event log
        lists them."""
        m, nb = self._m, self._nb
        q, j = divmod(line, m)
        step, base = self._sign * j, q * self._line_stride
        # the line's block is the column of a ROW op's names, the row of a COLUMN op's
        block = str(q)
        before, after = ("", "," + block) if self._row else (block + ",", "")
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
        sums = diag_parity(state.blocks)
        return cls(state.geom, sums.transpose(2, 3, 1, 0))  # [br, bc, bank, d] -> [bank, d, bc, br]

    def parity(self, block_row: int, block_col: int) -> BlockParity:
        lead, ctr = self.planes[:, :, block_col, block_row].tolist()
        return BlockParity(tuple(lead), tuple(ctr))

    def flip_bit(self, bank: Bank, diag: int, block_row: int, block_col: int) -> None:
        self.planes[_BANKS.index(bank), diag, block_col, block_row] ^= 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, CheckMem)
                and self.geom == other.geom
                and np.array_equal(self.planes, other.planes))


@dataclass(frozen=True, slots=True)
class BlockReport:
    """Diagnosis of one block from one check pass. A check lists its reports
    in block order, so a report's position names its block: row-major for a
    ROW sweep, column-major for a COLUMN one."""

    diagnosis: Diagnosis


# every clean block's and every uncorrectable block's, shared: they are immutable
_CLEAN_REPORT = BlockReport(CLEAN)
_UNCORRECTABLE_REPORT = BlockReport(UNCORRECTABLE)


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
        self.timeline = UnitTimeline()
        self.events: list[Event] = []
        # processing-crossbar pairs, one crossbar per bank each
        self._pc_units = tuple(f"PC{i}" for i in range(pc_pairs))
        m = self.geom.m
        # check-bit crossbar planes[b, d] at index b * m + d. A window that
        # every crossbar takes (a line check's read, a block reset's write, a
        # critical op on every offset of a block) is booked once, on the shared
        # unit "CBX"; a crossbar's own list holds only the windows booked on it
        # alone, so its busy cycles are those of "CBX" and of its own list
        self._cbx_units = tuple(f"CBX:{bank.value}:{d}"
                                for bank in _BANKS for d in range(m))
        self._every_cbx = ("CBX", *self._cbx_units)  # what a step on all of them searches
        # first cycle at which each check-bit may be read or written again:
        # once the last write to it has landed and the last line check has
        # read it; indexed as checkmem.planes; int32, so every step ends
        # before CYCLE_END
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
               pair_span: int, waiting: str, reach: int = 0) -> tuple[int, int]:
        """Issue a critical op or a line check at t, the first cycle at or after
        ``earliest``, ``floor``, MEM's free cycle and some pair's at which the
        (offset, span) ``windows`` are idle on the check-bit crossbars
        ``cbx_units``. A wait is logged as one ``SCHED stall`` record,
        ``<waiting> wait=<cycles>``. Holds MEM for ``mem_span`` cycles and the
        lowest pair free at t for ``pair_span``, books the windows, on "CBX"
        if the step takes every crossbar, and returns (t, pair).

        First raises OverflowError, having changed nothing, if the step could
        end at or past :data:`CYCLE_END`: its pair is busy until t +
        ``pair_span``, and a line check's corrections may run to t +
        ``reach``."""
        timeline = self.timeline
        mem_ready = max(earliest, timeline.next_free("MEM"))
        frees = list(map(timeline.next_free, self._pc_units))
        if len(cbx_units) == len(self._cbx_units):
            search, booked = self._every_cbx, ("CBX",)
        else:
            search, booked = ("CBX", *cbx_units), cbx_units
        t = timeline.first_free(search, max(mem_ready, floor, min(frees)), windows)
        _check_end(t + max(pair_span, reach))
        if t > mem_ready:
            self.log(mem_ready, "SCHED", "stall", f"{waiting} wait={t - mem_ready}",
                     span=t - mem_ready)
        timeline.reserve("MEM", t, mem_span)
        pair = next(i for i, free in enumerate(frees) if free <= t)
        timeline.reserve(self._pc_units[pair], t, pair_span)
        timeline.book(booked, t, windows)
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
        return (encode_block(self.state.blocks[block_row, block_col])
                == self.checkmem.parity(block_row, block_col))

    # ------------------------------------------------------------------
    # operations

    def noncritical_op(self, op: MicroOp, earliest: int = 0) -> int:
        """Plain MAGIC op: one MEM cycle, no ECC involvement."""
        validate_op(self.state, op)
        t = max(earliest, self.timeline.next_free("MEM"))
        _check_end(t + 1)
        self.timeline.reserve("MEM", t, 1)
        apply_op_inplace(self.state.cells, op)
        self.log(t, "MEM", "op", format_op(op) + " critical=0")
        return t

    def critical_op(self, op: MicroOp, earliest: int = 0) -> int:
        """Run the cancel/perform/add protocol around one MAGIC op; returns
        its issue cycle."""
        validate_op(self.state, op)
        tm = self.timing
        c, x, wb = tm.copy_cycles, tm.xor3_cycles, tm.writeback_cycles
        line = op.output_line
        footprint = lane_footprint(self.geom, op.orientation, op.lane_mask)
        touched, crossbars, diags = footprint.at(line)

        # one parallel line access per crossbar, even when several blocks
        # along the written line share a diagonal index; the check-bits are
        # read at t + c, once every write to them has landed, and written
        # back at t + back, when the pair's transfers and XOR3 are done
        back = 2 * c + 1 + x
        t, pair = self._issue(
            earliest, int(self._check_ready.take(touched).max()) - c,
            [self._cbx_units[u] for u in crossbars], ((c, c), (back, wb)),
            tm.mem_cycles_per_critical, back + wb, f"op_out={line}")
        write_at = t + back
        self._check_ready.put(touched, write_at + wb)  # put indexes the flat view

        # functional effect: each touched check-bit becomes old ^ new ^ stored,
        # the written cells' old ^ new in ascending lane order XORed into both
        # banks; a copy of the old bits, since a contiguous lane set reads a view
        cells, index = self.state.cells, op.lane_set.index
        plane = cells if op.orientation is Orientation.ROW else cells.T
        old = plane[index, line].copy()
        apply_op_inplace(cells, op)
        self.checkmem.planes.reshape(-1)[touched] ^= old ^ plane[index, line]

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
        # the Init ops hold MEM from t0, the check-bit write lands at t + wb,
        # no earlier than every write already in flight to the block's bits;
        # both are known before anything is booked, logged or written
        timeline, wb = self.timeline, self.timing.writeback_cycles
        ready = self._check_ready[:, :, block_col, block_row]
        t0 = max(earliest, timeline.next_free("MEM"))
        write = ((0, wb),)
        t = timeline.first_free(self._every_cbx, max(t0 + m, timeline.next_free("CTRL"),
                                                     int(ready.max())), write)
        _check_end(t + wb)
        base_row, base_col = block_row * m, block_col * m
        lanes = ",".join(map(str, range(base_row, base_row + m)))
        self.log(t0, "SCHED", "block_reset", f"block={block_row},{block_col}")
        # m row-parallel Init ops, one per line of the block, one cycle each,
        # written as one slice and logged from their fields
        timeline.reserve("MEM", t0, m)
        self.state.cells[base_row:base_row + m, base_col:base_col + m] = 1
        # the records differ only in their output line: rendered once, then
        # split around it
        head, _, tail = (op_record(OpKind.INIT, Orientation.ROW, base_col, (), lanes)
                         + " critical=0 reset=1").partition(f" out={base_col} ")
        self.events += (Event(t0 + lc, "MEM", "op", f"{head} out={base_col + lc} {tail}")
                        for lc in range(m))
        self.checkmem.planes[:, :, block_col, block_row] = 1
        timeline.book(("CBX",), t, write)
        ready[...] = t + wb  # the block's check-bits are readable once the write has landed
        timeline.reserve("CTRL", t, wb)
        self.log(t, "CTRL", "ecc_write", f"block={block_row},{block_col}", span=wb)
        return t + wb

    def _check_index(self, index: int) -> None:
        """Raise GeometryError unless ``index`` names a row (or column) of blocks."""
        nb = self.geom.blocks_per_side
        if not 0 <= index < nb:
            raise GeometryError(f"block row index {index} outside [0,{nb})")

    def _dirty_blocks(self, lines: list[int], orientation: Orientation,
                      ) -> list[list[tuple[int, Diagnosis]]]:
        """The dirty blocks of each of ``lines``, distinct lines of one
        orientation, as (position in the line, diagnosis) in ascending
        position: the codec pass of a line check, made once for all of them.

        The fresh check-bits of the lines' blocks come from one gather of
        :attr:`CrossbarState.blocks`, of a slice of it when the lines are
        contiguous; they and the stored ones, both uint8 [line, block, bank,
        diag], are read as one 2m-byte key per block, leading then counter;
        one ``BlockParity`` is built per distinct key, each bank unpacked
        from the key as an m-tuple, so that a clean block's fresh and stored
        bits are one record; then every block's syndrome, and only the
        blocks whose syndrome is not the shared zero one are decoded."""
        m, nb = self.geom.m, self.geom.blocks_per_side
        first = lines[0]
        pick = (slice(first, first + len(lines))
                if lines == list(range(first, first + len(lines))) else lines)
        blocks, planes = self.state.blocks, self.checkmem.planes
        if orientation is Orientation.ROW:
            fresh = diag_parity(blocks[pick])
            stored = planes[..., pick].transpose(3, 2, 0, 1)
        else:
            fresh = diag_parity(blocks[:, pick].swapaxes(0, 1))
            stored = planes[:, :, pick].transpose(2, 3, 0, 1)
        fresh = [key for key, in struct.iter_unpack(f"{2 * m}s", fresh.tobytes())]
        stored = [key for key, in struct.iter_unpack(f"{2 * m}s", stored.tobytes())]
        keys = list({*fresh, *stored})
        leading, counter = struct.Struct(f"{m}B{m}x").unpack, struct.Struct(f"{m}x{m}B").unpack
        records = dict(zip(keys, map(BlockParity, map(leading, keys), map(counter, keys))))
        syndromes = list(map(compute_syndrome, map(records.__getitem__, fresh),
                             map(records.__getitem__, stored)))
        dirty: list[list[tuple[int, Diagnosis]]] = [[] for _ in lines]
        for k in compress(count(), map(operator.is_not, syndromes, repeat(zero_syndrome(m)))):
            line, block = divmod(k, nb)
            dirty[line].append((block, decode_syndrome(syndromes[k])))
        return dirty

    def check_block_row(self, index: int, orientation: Orientation = Orientation.ROW,
                        earliest: int = 0, *,
                        _dirty: list[tuple[int, Diagnosis]] | None = None,
                        ) -> tuple[list[BlockReport], int]:
        """Check one row (or column) of blocks; corrects what it can.

        Returns the per-block reports, in block order, and the cycle after
        the check (and any corrections) completed. The MEM is released after
        the m copy cycles.

        As the CMEM XORs a whole line in a processing crossbar and compares
        it to zero in the checking crossbar, every block's syndrome is taken
        first, before any correction writes a cell, in the codec pass of
        :meth:`_dirty_blocks`: one ``BlockParity`` per distinct check-bit
        pattern among the line's fresh and stored bits, and one
        ``compute_syndrome`` per block, whose equality test passes a clean
        block's one record by identity. Only a dirty block, whose syndrome
        is not the shared zero one, is decoded and has the controller read
        its syndrome and correct it, in ascending block order; a located
        error gets its own report, and every clean or uncorrectable block
        shares one report per outcome. The stored check-bits are read once
        every write in flight to them has landed.

        ``_dirty`` is :meth:`check_lines`' path: the line's dirty blocks,
        from the codec pass of the run's group of lines.
        """
        geom, tm = self.geom, self.timing
        m, nb = geom.m, geom.blocks_per_side
        dirty = _dirty
        if dirty is None:
            self._check_index(index)
            dirty, = self._dirty_blocks([index], orientation)
        c, x, zc = tm.copy_cycles, tm.xor3_cycles, tm.zero_compare_cycles
        levels = xor3_tree_levels(m)
        by_row = orientation is Orientation.ROW
        line = (..., index) if by_row else (slice(None), slice(None), index)  # of planes

        # the stored check-bits are read at t + syn, once every write in flight
        # to them has landed, the compare is at t + syn + x; the corrections
        # end by t + syn + max(x + zc, c), or by the free cycle of CTRL or of a
        # check-bit crossbar, plus a read and a write per dirty block
        syn = m * c + levels * x
        tail = len(dirty) * (tm.controller_read_cycles + tm.correction_write_cycles)
        if dirty:
            _check_end(max(self.timeline.next_free("CTRL"),
                           *map(self.timeline.next_free, self._every_cbx)) + tail)
        floor = max(self.timeline.next_free("CHECK") - x, int(self._check_ready[line].max()))
        t, pair = self._issue(earliest, floor - syn, self._cbx_units, ((syn, c),), m * c,
                              syn + x, f"check={index}", syn + max(x + zc, c) + tail)
        syn_at = t + syn
        # no write lands on the line's stored bits before they are read: the
        # floor put syn_at past every write in flight, so this only raises them
        self._check_ready[line] = syn_at + c
        zero_at = syn_at + x
        self.timeline.reserve("CHECK", zero_at, zc)

        self.log(t, "SCHED", "check_row",
                 f"index={index} orient={orientation.value}")
        # the m line copies in one step, as critical_op logs its records
        self.events += (Event(t + k * c, "MEM", "copy_row", f"line={index * m + k} pc={pair}", c)
                        for k in range(m))
        self.log(t + m * c, f"PC{pair}", "xor3_tree",
                 f"vectors={m} levels={levels}", span=levels * x)
        self.log(syn_at, f"PC{pair}", "syndrome_xor3", "banks=leading,counter", span=x)
        self.log(zero_at, "CHECK", "zero_compare", f"blocks={nb}", span=zc)

        reports = [_CLEAN_REPORT] * nb
        done = zero_at + zc
        for k, diag in dirty:
            br, bc = (index, k) if by_row else (k, index)
            reports[k] = _UNCORRECTABLE_REPORT if diag is UNCORRECTABLE else BlockReport(diag)
            read_at = max(done, self.timeline.next_free("CTRL"))
            self.timeline.reserve("CTRL", read_at, tm.controller_read_cycles)
            self.log(read_at, "CTRL", "read_syndrome",
                     f"block={br},{bc} result={diag.kind.value}",
                     span=tm.controller_read_cycles)
            done = read_at + tm.controller_read_cycles
            if diag is UNCORRECTABLE:
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
                write_at = self.timeline.first_free(("CBX", unit), done, write)
                self.timeline.book((unit,), write_at, write)
                # the corrected bit is readable once its write has landed
                self._check_ready[bank, diag.idx, bc, br] = write_at + tm.correction_write_cycles
                self.log(write_at, unit, "correct_check",
                         f"block={br},{bc} diag={diag.idx}",
                         span=tm.correction_write_cycles)
            done = write_at + tm.correction_write_cycles
        return reports, done

    def check_lines(self, indices, orientation: Orientation = Orientation.ROW,
                    earliest: int = 0) -> tuple[list[BlockReport], int]:
        """Check a run of lines, distinct rows (or columns) of blocks, in
        order, each no earlier than ``earliest``. Returns every line's
        reports, in the run's order, and the cycle after the last check (and
        any corrections) completed.

        Every index is validated first, so a bad one raises GeometryError
        before any line is checked, and a repeated one ValueError. The
        codec pass (:meth:`_dirty_blocks`) runs once per group of the run's
        lines, before the group's first line is checked: as many lines as
        keep the gather's temporary within :data:`SWEEP_GATHER_BYTES` (4
        lines at 1020/15, every line at 45/5). Each line is then checked by
        one :meth:`check_block_row`, which does its timing, records and
        corrections. That is exact: a correction writes only a cell or a
        check-bit of the block it corrects, and distinct lines of one
        orientation share no block, so no block's cells or check-bits
        change before its own line is checked."""
        lines = list(indices)
        for index in lines:
            self._check_index(index)
        if len(set(lines)) != len(lines):
            raise ValueError(f"a run of line checks repeats a line: {lines}")
        m, nb = self.geom.m, self.geom.blocks_per_side
        step = max(1, SWEEP_GATHER_BYTES // (2 * m * m * nb))
        reports: list[BlockReport] = []
        done = earliest
        for first in range(0, len(lines), step):
            group = lines[first:first + step]
            for index, dirty in zip(group, self._dirty_blocks(group, orientation)):
                line_reports, line_done = self.check_block_row(index, orientation, earliest,
                                                               _dirty=dirty)
                reports += line_reports
                done = max(done, line_done)
        return reports, done

    def full_memory_check(self, orientation: Orientation = Orientation.ROW,
                          earliest: int = 0) -> list[BlockReport]:
        """Sweep every row (or column) of blocks as one run of
        :meth:`check_lines`; chains pipeline through the PC pairs. Returns
        every block's report, in block order; :func:`run_stats` counts the
        outcomes."""
        return self.check_lines(range(self.geom.blocks_per_side), orientation, earliest)[0]


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
