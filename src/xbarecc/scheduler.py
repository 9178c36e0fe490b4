"""Netlist-to-row compilation and ECC-aware greedy scheduling.

A netlist is first mapped to a single-crossbar-row MAGIC program
(topological order with reference-counted cell reuse), then the ECC
operations are woven in: a check of the block row holding the function
inputs, a direct ECC reset of the output blocks, and the
cancel/perform/add pipeline around every op that writes an output column.
Events are issued greedily in program order at the earliest cycle when all
required units are free.
"""

import heapq
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby

from .checkmem import Event, Machine, RunStats, TimingModel, check_chain_cycles, run_stats
from .engine import (
    CrossbarState,
    MicroOp,
    OpKind,
    Orientation,
    init_op,
    nor_op,
)
from .geometry import Geometry
from .netlist import Netlist, NetlistError, check_assignment


class RowCapacityError(ValueError):
    """The netlist does not fit the crossbar row under the reuse policy."""


PROGRAM_ROW = 0  # compiled functions execute in the first crossbar row


@dataclass(frozen=True)
class RowProgram:
    """A netlist lowered to MAGIC ops confined to one crossbar row."""

    netlist: Netlist
    geom: Geometry
    ops: tuple[MicroOp, ...]
    input_columns: dict[str, int]
    output_columns: dict[str, int]

    @property
    def baseline_cycles(self) -> int:
        return len(self.ops)  # one cycle per op

    @property
    def input_block_cols(self) -> tuple[int, ...]:
        m = self.geom.m
        return tuple(sorted({col // m for col in self.input_columns.values()}))

    @property
    def output_block_cols(self) -> tuple[int, ...]:
        """Blocks holding gate-produced outputs (aliased inputs excluded)."""
        m = self.geom.m
        cols = {col // m for name, col in self.output_columns.items()
                if name not in self.input_columns}
        return tuple(sorted(cols))


def map_to_row(netlist: Netlist, geom: Geometry) -> RowProgram:
    """Lower a netlist to a single-row program with block-aligned layout.

    Inputs occupy the leftmost blocks and stay pinned; gate-produced outputs
    get dedicated blocks right after them (so ECC-covered cells never share
    a block with scratch data); intermediate columns are recycled once every
    consumer of their value has fired, preferring the lowest free column.
    Ready gates are ordered largest-fanout-first to shorten value lifetimes.
    """
    m, n = geom.m, geom.n
    inputs, outputs, gates = netlist.inputs, netlist.outputs, netlist.gates

    input_columns = {name: idx for idx, name in enumerate(inputs)}
    in_blocks = math.ceil(len(inputs) / m) if inputs else 0
    out_gate_ids = [o for o in outputs if o not in input_columns]
    out_start = in_blocks * m
    output_columns = {}
    for idx, name in enumerate(out_gate_ids):
        output_columns[name] = out_start + idx
    out_blocks = math.ceil(len(out_gate_ids) / m) if out_gate_ids else 0
    scratch_start = out_start + out_blocks * m
    if scratch_start > n or len(inputs) > n:
        raise RowCapacityError(
            f"{len(inputs)} inputs + {len(out_gate_ids)} outputs exceed row width {n}")
    free_cols = list(range(scratch_start, n))
    heapq.heapify(free_cols)

    refcount = {gid: 0 for gid in input_columns}
    for gate in gates:
        refcount[gate.gate_id] = 0
        for op in gate.operands:
            refcount[op] += 1

    consumers: dict[str, list[int]] = {}
    for pos, gate in enumerate(gates):
        for op in gate.operands:
            consumers.setdefault(op, []).append(pos)

    # Netlist.fanout of every value: the parser rejects a gate naming an
    # operand twice, so each reading gate counts once, plus one per output
    fanout = dict(refcount)
    for out in outputs:
        fanout[out] += 1

    cell_map = dict(input_columns)
    # ready heap keyed largest fanout first, then program order; a gate is
    # pushed once, when its last operand is placed
    ready: list[tuple[int, int]] = []
    deps_left = []
    for pos, gate in enumerate(gates):
        deps_left.append(sum(op not in cell_map for op in gate.operands))
        if deps_left[pos] == 0:
            heapq.heappush(ready, (-fanout[gate.gate_id], pos))

    ops: list[MicroOp] = []
    lanes = frozenset({PROGRAM_ROW})
    while ready:
        gate = gates[heapq.heappop(ready)[1]]
        if gate.gate_id in output_columns:
            dest = output_columns[gate.gate_id]
        else:
            if not free_cols:
                raise RowCapacityError(
                    f"row width {n} exhausted at gate {gate.gate_id!r}")
            dest = heapq.heappop(free_cols)
        in_cols = tuple(cell_map[op] for op in gate.operands)
        ops.append(init_op(Orientation.ROW, dest, lanes))
        ops.append(nor_op(Orientation.ROW, in_cols, dest, lanes))
        cell_map[gate.gate_id] = dest

        for operand in gate.operands:
            refcount[operand] -= 1
            if (refcount[operand] == 0 and operand not in output_columns
                    and operand not in input_columns):
                heapq.heappush(free_cols, cell_map[operand])
        for nxt in consumers.get(gate.gate_id, []):
            deps_left[nxt] -= 1
            if deps_left[nxt] == 0:
                heapq.heappush(ready, (-fanout[gates[nxt].gate_id], nxt))
    if len(ops) != 2 * len(gates):
        raise NetlistError("internal error: not all gates scheduled")

    out_cols = {name: cell_map[name] for name in outputs}
    return RowProgram(netlist, geom, tuple(ops), input_columns, out_cols)


# ----------------------------------------------------------------------
# ECC insertion and the schedule object

class ActionKind(Enum):
    CHECK_ROW = "check_row"
    BLOCK_RESET = "block_reset"
    OP = "op"


@dataclass(frozen=True, slots=True)
class Action:
    """One step of a schedule: a line check, a block reset or an op.
    Slotted, because a schedule holds one per op: 89 bytes each, where a
    record with a ``__dict__`` takes 137."""

    kind: ActionKind
    op: MicroOp | None = None
    critical: bool = False
    index: int = 0
    orientation: Orientation = Orientation.ROW
    block: tuple[int, int] | None = None


@dataclass(frozen=True)
class EccSchedule:
    """Cycle- and unit-annotated program with its ECC machinery woven in.

    It holds what a ``.events`` file holds, so a written schedule reads
    back into an equal one; its statistics are read off its events and
    actions.
    """

    name: str
    geom: Geometry
    timing: TimingModel
    pc_pairs: int
    input_columns: dict[str, int]
    output_columns: dict[str, int]
    actions: tuple[Action, ...]
    events: tuple[Event, ...]
    baseline_cycles: int
    total_cycles: int

    @property
    def stall_cycles(self) -> int:
        return run_stats(self.events).stall_cycles

    @property
    def critical_ops(self) -> int:
        return sum(a.kind is ActionKind.OP and a.critical for a in self.actions)

    @property
    def input_check_cycles(self) -> int:
        if any(a.kind is ActionKind.CHECK_ROW for a in self.actions):
            return check_chain_cycles(self.geom.m, self.timing)
        return 0


@dataclass
class ScheduleRun:
    """Result of executing a schedule on a concrete machine; its counts of
    corrected and uncorrectable blocks are read off the machine's events."""

    total_cycles: int
    machine: Machine
    outputs: dict[str, int] = field(default_factory=dict)

    @property
    def corrected(self) -> int:
        return run_stats(self.machine.events).corrected

    @property
    def uncorrectable(self) -> int:
        return run_stats(self.machine.events).uncorrectable


def build_actions(rp: RowProgram) -> tuple[Action, ...]:
    """ECC-aware action list for a row program.

    The input-block check runs only when the program has gates. A
    pass-through (no gates) schedules no actions at all, so an error in an
    input block is not checked and reaches its aliased output uncorrected:
    the one exception to correcting a single error per input block. Per-cell
    Init ops on output columns are replaced by whole-block ECC resets;
    every remaining write to an output column is critical.
    """
    actions: list[Action] = []
    out_cols = set(rp.output_columns[name] for name in rp.output_columns
                   if name not in rp.input_columns)
    if rp.ops:
        actions.append(Action(ActionKind.CHECK_ROW, index=PROGRAM_ROW // rp.geom.m,
                              orientation=Orientation.ROW))
        for bc in rp.output_block_cols:
            actions.append(Action(ActionKind.BLOCK_RESET,
                                  block=(PROGRAM_ROW // rp.geom.m, bc)))
    for op in rp.ops:
        writes_output = op.output_line in out_cols
        if writes_output and op.kind is OpKind.INIT:
            continue  # per-cell init subsumed by the block reset
        # one record per op, so positional, the cheapest call
        actions.append(Action(ActionKind.OP, op, writes_output))
    return tuple(actions)


def _check_runs(checks):
    """(orientation, lines) of each maximal run of consecutive line checks
    that has one orientation and no repeated line: a run ends where the
    orientation changes or a line comes again."""
    lines: list[int] = []
    seen: set[int] = set()
    orientation = None
    for check in checks:
        if lines and (check.orientation is not orientation or check.index in seen):
            yield orientation, lines
            lines, seen = [], set()
        orientation = check.orientation
        lines.append(check.index)
        seen.add(check.index)
    if lines:
        yield orientation, lines


def run_actions(machine: Machine, actions: tuple[Action, ...]) -> ScheduleRun:
    """Issue actions in order against the machine's unit timelines.

    Each maximal run of consecutive line checks with one orientation and no
    repeated line goes to one :meth:`Machine.check_lines`, which equals its
    lines checked one by one (any other action ends a run). Function ops
    are held until the input checks (plus any corrections they perform)
    have completed, since unverified inputs must not feed gates.
    """
    floor = 0
    for is_check, group in groupby(actions, lambda a: a.kind is ActionKind.CHECK_ROW):
        if is_check:
            for orientation, lines in _check_runs(group):
                floor = max(floor, machine.check_lines(lines, orientation)[1])
            continue
        for action in group:
            if action.kind is ActionKind.BLOCK_RESET:
                machine.block_ecc_reset(*action.block, earliest=floor)
            elif action.critical:
                machine.critical_op(action.op, earliest=floor)
            else:
                machine.noncritical_op(action.op, earliest=floor)
    return ScheduleRun(machine.horizon, machine)


def _issue_on_blank(schedule: EccSchedule, k_pc_pairs: int) -> EccSchedule:
    """The schedule's actions issued again on a clean machine with k pairs."""
    machine = Machine.blank(schedule.geom, timing=schedule.timing,
                            pc_pairs=k_pc_pairs)
    run = run_actions(machine, schedule.actions)
    return replace(schedule, pc_pairs=k_pc_pairs, events=tuple(machine.events),
                   total_cycles=run.total_cycles)


def insert_ecc(rp: RowProgram, geom: Geometry, tm: TimingModel,
               k_pc_pairs: int) -> EccSchedule:
    """Schedule a row program with its ECC operations on a clean machine."""
    if geom != rp.geom:
        raise ValueError("schedule geometry differs from the row program's")
    unissued = EccSchedule(
        name=rp.netlist.name,
        geom=geom,
        timing=tm,
        pc_pairs=k_pc_pairs,
        input_columns=rp.input_columns,
        output_columns=rp.output_columns,
        actions=build_actions(rp),
        events=(),
        baseline_cycles=rp.baseline_cycles,
        total_cycles=0,
    )
    return _issue_on_blank(unissued, k_pc_pairs)


def execute_schedule(schedule: EccSchedule, assignment: dict[str, int],
                     flips: tuple[tuple[int, int], ...] = (),
                     check_flips: tuple = ()) -> ScheduleRun:
    """Run a schedule on a fresh machine: seed inputs, optionally inject
    faults, replay the actions, and read the outputs back."""
    check_assignment(schedule.name, schedule.input_columns, assignment)
    state = CrossbarState.zeros(schedule.geom)
    for name, col in schedule.input_columns.items():
        state.cells[PROGRAM_ROW, col] = assignment[name] & 1
    machine = Machine(state, timing=schedule.timing, pc_pairs=schedule.pc_pairs)
    for row, col in flips:
        machine.inject_data_flip(row, col)
    for bank, diag, br, bc in check_flips:
        machine.inject_check_flip(bank, diag, br, bc)
    run = run_actions(machine, schedule.actions)
    run.outputs = {name: int(machine.state.cells[PROGRAM_ROW, col])
                   for name, col in schedule.output_columns.items()}
    return run


# ----------------------------------------------------------------------
# reporting

@dataclass(frozen=True)
class ScheduleStats:
    baseline: int
    proposed: int
    overhead_percent: float
    min_pc_pairs: int
    stall_cycles: int
    input_check_cycles: int
    critical_ops: int
    init_cycles: int  # output-preset ops inside the baseline count


PAIR_CAP = 64  # the most processing-crossbar pairs min_pc_pairs reports


def _pairs_read_off(stats: RunStats, pc_pairs: int) -> int | None:
    """min_pc_pairs as far as the statistics ``stats`` of one schedule with
    ``pc_pairs`` pairs decide it, else None."""
    if stats.stall_cycles == 0:
        return min(max(1, len(stats.pairs)), PAIR_CAP)
    if pc_pairs >= PAIR_CAP:
        return PAIR_CAP
    return None


def min_pc_pairs(rp: RowProgram, tm: TimingModel) -> int:
    """Smallest pair count with zero stalls, capped at :data:`PAIR_CAP`,
    from one schedule.

    Every unit takes the lowest free pair, so a stall-free run with k pairs
    issues each action exactly as any run with more pairs does, and uses
    the fewest pairs any stall-free run needs: with one pair fewer, the
    first action that took the highest pair finds every lower one busy and
    stalls. The answer is the pairs a stall-free schedule used (at least
    1), at most the cap; a schedule that still stalls at the cap gives the
    cap. One schedule at the cap decides it.
    """
    return _pairs_read_off(run_stats(insert_ecc(rp, rp.geom, tm, PAIR_CAP).events), PAIR_CAP)


def report(schedule: EccSchedule) -> ScheduleStats:
    """Latency statistics of one schedule, including the minimum pair count.

    ``min_pc_pairs`` is read off this schedule by the same rule when it is
    stall-free or has at least :data:`PAIR_CAP` pairs; otherwise its
    actions, issued again on a clean machine with that many pairs, decide
    it.
    """
    baseline = schedule.baseline_cycles
    proposed = schedule.total_cycles
    overhead = 100.0 * (proposed - baseline) / baseline if baseline else 0.0
    stats = run_stats(schedule.events)
    pairs = _pairs_read_off(stats, schedule.pc_pairs)
    if pairs is None:
        pairs = _pairs_read_off(run_stats(_issue_on_blank(schedule, PAIR_CAP).events), PAIR_CAP)
    return ScheduleStats(
        baseline=baseline,
        proposed=proposed,
        overhead_percent=overhead,
        min_pc_pairs=pairs,
        stall_cycles=stats.stall_cycles,
        input_check_cycles=schedule.input_check_cycles,
        critical_ops=schedule.critical_ops,
        # map_to_row lowers every gate to one Init and one NOR
        init_cycles=baseline // 2,
    )


def geometric_mean_ratio(stats: list[ScheduleStats]) -> float:
    """exp(mean(ln(proposed/baseline))) over circuits with a nonzero baseline."""
    ratios = [s.proposed / s.baseline for s in stats if s.baseline > 0]
    if not ratios:
        return 1.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))
