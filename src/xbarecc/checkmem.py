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

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .engine import (
    CrossbarState,
    EngineConfig,
    MicroOp,
    OpKind,
    Orientation,
    apply_op_inplace,
    format_op,
    init_op,
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


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence: a unit doing an action for span cycles."""

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
        if windows and start == free:
            windows[-1] = start + span
        else:
            windows += (start, start + span)

    def book(self, unit: str, start: int, span: int) -> None:
        windows = self._windows[unit]
        end = start + span
        i = bisect_right(windows, start)  # odd: start lies in a busy window
        if i % 2 or (i < len(windows) and end > windows[i]):
            raise RuntimeError(
                f"unit {unit} double-booked at cycle {start if i % 2 else windows[i]}")
        # merge with a window that ends at start or starts at end
        lo = i - (i > 0 and windows[i - 1] == start)
        hi = i + (i < len(windows) and windows[i] == end)
        windows[lo:hi] = [start] * (lo == i) + [end] * (hi == i)

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
    """(rows, cols) of the cells an op writes, in lane order; none for READ."""
    lanes = np.array(op.lanes if op.kind is not OpKind.READ else (), dtype=np.intp)
    line = np.full_like(lanes, op.output_line)
    return (lanes, line) if op.orientation is Orientation.ROW else (line, lanes)


def touched_check_cells(rows: np.ndarray, cols: np.ndarray,
                        geom: Geometry) -> np.ndarray:
    """One (bank, diag, block_row, block_col) row per check-bit that writing
    the cells (rows, cols) of :func:`written_cells` touches.

    Bank 0 is :attr:`Bank.LEADING` and 1 is :attr:`Bank.COUNTER`. The
    leading rows come first, row k of each half belonging to the k-th
    written cell. Raises :class:`DiagonalConflictError` if one op would
    touch a check-bit twice; row/column-parallel ops never do, so this is
    an internal guard.
    """
    n, m, nb = geom.n, geom.m, geom.blocks_per_side
    if rows.size and not (min(rows.min(), cols.min()) >= 0
                          and max(rows.max(), cols.max()) < n):
        raise GeometryError(f"op writes cells outside the {n}x{n} crossbar")
    i, j = rows % m, cols % m
    touched = np.column_stack([
        np.repeat((0, 1), rows.size),
        np.concatenate([(i + j) % m, (i - j) % m]),
        np.tile(rows // m, 2),
        np.tile(cols // m, 2),
    ])
    keys = np.sort(np.ravel_multi_index(touched.T, (2, m, nb, nb)))
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        key = tuple(int(k) for k in np.unravel_index(repeated[0], (2, m, nb, nb)))
        raise DiagonalConflictError(f"op touches check-bit {key} twice")
    return touched


class CheckMem:
    """Check-bit storage: m crossbars of (n/m) x (n/m) cells per bank.

    Cell (a, b) of crossbar d in a bank holds the check-bit for diagonal d
    of the block a block-columns from the left and b block-rows from the
    top, so plane indexing is [diag, block_col, block_row].
    """

    def __init__(self, geom: Geometry, planes: dict[Bank, np.ndarray]):
        nb = geom.blocks_per_side
        for bank in Bank:
            if planes[bank].shape != (geom.m, nb, nb):
                raise GeometryError(
                    f"{bank.value} planes shaped {planes[bank].shape}, "
                    f"expected {(geom.m, nb, nb)}")
        self.geom = geom
        self.planes = {bank: planes[bank].astype(np.uint8, copy=False) for bank in Bank}

    @classmethod
    def from_state(cls, state: CrossbarState) -> "CheckMem":
        """Encode every block of the given memory contents."""
        geom = state.geom
        n, m, nb = geom.n, geom.m, geom.blocks_per_side
        cells = np.ascontiguousarray(state.cells)
        # [block_row, block_col] -> the cells from the block's first to its
        # last, rows n apart: a read-only view, no copy of the memory
        spans = as_strided(cells, (nb, nb, (m - 1) * n + m),
                           (m * cells.strides[0], m * cells.strides[1], cells.strides[1]),
                           writeable=False)
        # sums[br, bc, bank, d] -> plane[d, bc, br]
        sums = diag_parity(spans, m, n).transpose(2, 3, 1, 0)
        return cls(geom, {bank: np.ascontiguousarray(sums[b])
                          for b, bank in enumerate(Bank)})

    def parity(self, block_row: int, block_col: int) -> BlockParity:
        return BlockParity(
            tuple(self.planes[Bank.LEADING][:, block_col, block_row].tolist()),
            tuple(self.planes[Bank.COUNTER][:, block_col, block_row].tolist()),
        )

    def set_parity(self, block_row: int, block_col: int, parity: BlockParity) -> None:
        self.planes[Bank.LEADING][:, block_col, block_row] = parity.leading
        self.planes[Bank.COUNTER][:, block_col, block_row] = parity.counter

    def flip_bit(self, bank: Bank, diag: int, block_row: int, block_col: int) -> None:
        self.planes[bank][diag, block_col, block_row] ^= 1

    def copy(self) -> "CheckMem":
        return CheckMem(self.geom, {bank: self.planes[bank].copy() for bank in Bank})

    def __eq__(self, other) -> bool:
        return (isinstance(other, CheckMem)
                and self.geom == other.geom
                and all(np.array_equal(self.planes[b], other.planes[b]) for b in Bank))


@dataclass(frozen=True)
class BlockReport:
    """Diagnosis of one block from one check pass."""

    block_row: int
    block_col: int
    diagnosis: Diagnosis


@dataclass(frozen=True)
class CheckSummary:
    """Aggregated result of a full-memory check."""

    clean: int
    corrected: int
    uncorrectable: int
    reports: tuple[BlockReport, ...]


_BANKS = tuple(Bank)  # bank column of a touched_check_cells row -> Bank
_BANK_TAGS = tuple(bank.value[0].upper() for bank in _BANKS)  # event-log prefix


class Machine:
    """One MEM + CMEM instance with its unit timelines and event log.

    Functional state and cycle accounting advance together; the timed
    pipeline and the plain codec agree on final states by construction,
    which the tests cross-check.
    """

    def __init__(self, state: CrossbarState, timing: TimingModel | None = None,
                 pc_pairs: int = 3):
        if pc_pairs < 1:
            raise ValueError(f"need at least one processing-crossbar pair, got {pc_pairs}")
        self.geom = state.geom
        self.state = state.copy()
        self.checkmem = CheckMem.from_state(state)
        self.timing = timing or TimingModel()
        self.engine_cfg = EngineConfig()
        self.timeline = UnitTimeline()
        self.events: list[Event] = []
        self.stall_cycles = 0
        # processing-crossbar pairs, one crossbar per bank each
        self._pc_units = tuple(f"PC{i}" for i in range(pc_pairs))
        m = self.geom.m
        # check-bit crossbar of (bank column b, diag d) at index b * m + d
        self._cbx_units = tuple(f"CBX:{bank.value}:{d}"
                                for bank in _BANKS for d in range(m))
        # first cycle at which each in-flight check-bit cell is readable again,
        # keyed by the flat index of a (bank, diag, block_row, block_col) row of
        # touched_check_cells in a [2, m, nb, nb] array
        self._cell_ready: dict[int, int] = {}

    @classmethod
    def blank(cls, geom: Geometry, **kwargs) -> "Machine":
        return cls(CrossbarState.zeros(geom), **kwargs)

    @property
    def pcs_used(self) -> set[int]:
        """Indices of the processing-crossbar pairs that have been busy."""
        return {i for i, unit in enumerate(self._pc_units)
                if self.timeline.next_free(unit)}

    def _pair_free_from(self) -> int:
        """First cycle some pair is free; nothing books it before it is taken."""
        return min(map(self.timeline.next_free, self._pc_units))

    def _take_pair(self, t: int, span: int) -> int:
        """Occupy the lowest-numbered pair free at t for span cycles."""
        pair = next(i for i, unit in enumerate(self._pc_units)
                    if self.timeline.next_free(unit) <= t)
        self.timeline.reserve(self._pc_units[pair], t, span)
        return pair

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
        self.checkmem.flip_bit(bank, diag, block_row, block_col)

    def consistent(self) -> bool:
        """True iff the stored check-bits equal a re-encode of every block."""
        return self.checkmem == CheckMem.from_state(self.state)

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
        m, nb = self.geom.m, self.geom.blocks_per_side
        rows, cols = written_cells(op)
        touched = touched_check_cells(rows, cols, self.geom)
        bank, diag, br, bcol = touched.T
        crossbar = bank * m + diag
        keys = ((crossbar * nb + br) * nb + bcol).tolist()

        mem_ready = max(earliest, self.timeline.next_free("MEM"))
        ready = max(map(self._cell_ready.get, keys, repeat(0)), default=0)
        # one parallel line access per crossbar, even when several blocks
        # along the written line share a diagonal index
        cbx_units = [self._cbx_units[u]
                     for u in np.flatnonzero(np.bincount(crossbar)).tolist()]
        # the read happens at t + c and the writeback at t + 2c + 1 + x
        t = self.timeline.first_free(
            cbx_units, max(mem_ready, ready - c, self._pair_free_from()),
            ((c, c), (2 * c + 1 + x, wb)))

        stall = t - mem_ready
        if stall > 0:
            self.log(mem_ready, "SCHED", "stall",
                     f"op_out={op.output_line} wait={stall}", span=stall)
            self.stall_cycles += stall

        # reservations
        self.timeline.reserve("MEM", t, tm.mem_cycles_per_critical)
        pair = self._take_pair(t, tm.pc_cycles_per_critical)
        read_at, write_at = t + c, t + 2 * c + 1 + x
        for unit in cbx_units:
            self.timeline.book(unit, read_at, c)
            self.timeline.book(unit, write_at, wb)
        self._cell_ready.update(dict.fromkeys(keys, write_at + wb))

        # functional effect: each touched check-bit becomes old ^ new ^ stored
        old = self.state.cells[rows, cols]
        apply_op_inplace(self.state.cells, op, self.engine_cfg)
        delta = old ^ self.state.cells[rows, cols]
        for half, plane_bank in zip(np.split(touched, 2), Bank):
            _, d, r, col = half.T
            self.checkmem.planes[plane_bank][d, col, r] ^= delta

        # sorted by (bank name, diag, block_row, block_col): counter before leading
        tags, *columns = touched[np.lexsort((bcol, br, diag, -bank))].T.tolist()
        diags = ";".join(map("{}{}@{},{}".format, map(_BANK_TAGS.__getitem__, tags),
                             *columns))
        fixed_line = op.output_line
        self.log(t, "MEM", "copy_old", f"line={fixed_line} pc={pair}", span=c)
        self.log(t + c, "MEM", "op", format_op(op) + " critical=1")
        self.log(t + c, f"PC{pair}", "load_check", f"cells={diags}", span=c)
        self.log(t + c + 1, "MEM", "copy_new", f"line={fixed_line} pc={pair}", span=c)
        self.log(t + 2 * c + 1, f"PC{pair}", "xor3", f"line={fixed_line}", span=x)
        self.log(write_at, f"PC{pair}", "writeback", f"cells={diags}", span=wb)
        return t

    def block_ecc_reset(self, block_row: int, block_col: int,
                        earliest: int = 0) -> int:
        """Initialize a whole block to 1 and write its check-bits directly.

        Resetting a full block sidesteps the XOR3 pipeline: the parity of an
        all-ones odd-sized block is all-ones in both banks, so the
        controller writes it in a single pass.
        """
        m, nb = self.geom.m, self.geom.blocks_per_side
        if not (0 <= block_row < nb and 0 <= block_col < nb):
            raise GeometryError(
                f"block ({block_row},{block_col}) outside the {nb}x{nb} blocks")
        t0 = max(earliest, self.timeline.next_free("MEM"))
        base_row, base_col = block_row * m, block_col * m
        lanes = frozenset(range(base_row, base_row + m))
        self.log(t0, "SCHED", "block_reset", f"block={block_row},{block_col}")
        # m row-parallel Init ops, one per line of the block, one cycle each
        self.timeline.reserve("MEM", t0, m)
        self.state.cells[base_row:base_row + m, base_col:base_col + m] = 1
        for lc in range(m):
            op = init_op(Orientation.ROW, base_col + lc, lanes)
            self.log(t0 + lc, "MEM", "op", format_op(op) + " critical=0 reset=1")
        ones = BlockParity((1,) * m, (1,) * m)
        self.checkmem.set_parity(block_row, block_col, ones)
        wb = self.timing.writeback_cycles
        t = self.timeline.first_free(
            self._cbx_units, max(t0 + m, self.timeline.next_free("CTRL")), ((0, wb),))
        for unit in self._cbx_units:
            self.timeline.book(unit, t, wb)
        # the block's check-bit in every crossbar: flat indices nb*nb apart
        self._cell_ready.update(dict.fromkeys(
            range(block_row * nb + block_col, 2 * m * nb * nb, nb * nb), t + wb))
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

        mem_ready = max(earliest, self.timeline.next_free("MEM"))
        syn = m * c + levels * x  # the stored check-bits are read at t + syn
        check_ready = self.timeline.next_free("CHECK") - syn - x  # compare at t + syn + x
        t = self.timeline.first_free(
            self._cbx_units, max(mem_ready, self._pair_free_from(), check_ready),
            ((syn, c),))
        if t > mem_ready:
            self.stall_cycles += t - mem_ready
            self.log(mem_ready, "SCHED", "stall",
                     f"check={index} wait={t - mem_ready}", span=t - mem_ready)

        self.timeline.reserve("MEM", t, m * c)
        syn_at = t + syn
        zero_at = syn_at + x
        pair = self._take_pair(t, zero_at - t)
        for unit in self._cbx_units:
            self.timeline.book(unit, syn_at, c)
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

        # functional: per-block syndrome, decode, correct
        reports: list[BlockReport] = []
        done = zero_at + zc
        # the line's blocks, copied once as [block][m][m]; blocks are disjoint
        # and each is decoded before its own correction, so a correction never
        # touches a block that is still to be read from the copy
        lines = slice(index * m, (index + 1) * m)
        if orientation is Orientation.ROW:
            blocks = self.state.cells[lines].reshape(m, nb, m).transpose(1, 0, 2)
            planes = np.s_[:, :, index]
        else:
            blocks = self.state.cells[:, lines].reshape(nb, m, m)
            planes = np.s_[:, index, :]
        blocks = np.ascontiguousarray(blocks)
        # stored check-bits of the whole line, [block][diag], read once
        lead, ctr = (self.checkmem.planes[bank][planes].T.tolist() for bank in Bank)
        for k in range(nb):
            br, bc = (index, k) if orientation is Orientation.ROW else (k, index)
            stored = BlockParity(tuple(lead[k]), tuple(ctr[k]))
            diag = decode_syndrome(compute_syndrome(blocks[k], stored))
            reports.append(BlockReport(br, bc, diag))
            if diag.kind is DiagnosisKind.CLEAN:
                continue
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
                unit = self._cbx_units[_BANKS.index(diag.bank) * m + diag.idx]
                write_at = self.timeline.first_free(
                    (unit,), done, ((0, tm.correction_write_cycles),))
                self.timeline.book(unit, write_at, tm.correction_write_cycles)
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
        clean = sum(r.diagnosis.kind is DiagnosisKind.CLEAN for r in reports)
        uncorrectable = sum(
            r.diagnosis.kind is DiagnosisKind.UNCORRECTABLE for r in reports)
        corrected = len(reports) - clean - uncorrectable
        return CheckSummary(clean, corrected, uncorrectable, tuple(reports))


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
