"""Row mapping and ECC-aware scheduling: semantics, timing, statistics."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarecc.checkmem import TimingModel, check_chain_cycles
from xbarecc.engine import CrossbarState, OpKind, execute
from xbarecc.geometry import Geometry
from xbarecc.netlist import NetlistError, load_bundled, parse_netlist
from xbarecc.scheduler import (
    PAIR_CAP,
    ActionKind,
    RowCapacityError,
    execute_schedule,
    geometric_mean_ratio,
    insert_ecc,
    map_to_row,
    min_pc_pairs,
    report,
)

G30 = Geometry(30, 3)
TM = TimingModel()


def schedule_bundled(name, geom=G30, k=4):
    nl = load_bundled(name)
    rp = map_to_row(nl, geom)
    return nl, rp, insert_ecc(rp, geom, TM, k)


def assignments(names):
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def simulate_row_program(rp, assignment):
    """Golden path: run the raw ops through the pure engine only."""
    state = CrossbarState.zeros(rp.geom)
    for name, col in rp.input_columns.items():
        state.cells[0, col] = assignment[name]
    for op in rp.ops:
        state = execute(state, op)
    return {name: int(state.cells[0, col])
            for name, col in rp.output_columns.items()}


class TestMapToRow:
    def test_not_chain_semantics(self):
        nl = load_bundled("not_chain")
        rp = map_to_row(nl, G30)
        gate_ops = [op for op in rp.ops if op.kind is OpKind.NOR]
        assert len(gate_ops) == 3
        for assign in assignments(nl.inputs):
            assert simulate_row_program(rp, assign) == nl.evaluate(assign)

    def test_full_adder_truth_table(self):
        nl = load_bundled("full_adder")
        rp = map_to_row(nl, G30)
        for assign in assignments(nl.inputs):
            assert simulate_row_program(rp, assign) == nl.evaluate(assign)

    def test_pass_through_has_no_ops(self):
        nl = load_bundled("passthrough")
        rp = map_to_row(nl, G30)
        assert rp.ops == ()
        assert rp.output_columns == rp.input_columns

    def test_layout_separates_roles(self):
        nl = load_bundled("full_adder")
        rp = map_to_row(nl, G30)
        m = G30.m
        in_blocks = {col // m for col in rp.input_columns.values()}
        out_blocks = {col // m for col in rp.output_columns.values()}
        assert in_blocks == {0}
        assert out_blocks == {1}
        scratch_cols = [op.output_line for op in rp.ops
                        if op.output_line not in rp.output_columns.values()]
        assert all(col // m >= 2 for col in scratch_cols)

    def test_cells_are_reused(self):
        # a long chain keeps at most a couple of live scratch values
        text = ".inputs a\n.outputs y\n" + "\n".join(
            f"g{k} = NOT {'a' if k == 0 else f'g{k-1}'}" for k in range(20)
        ) + "\ny = NOT g19\n"
        nl = parse_netlist(text)
        rp = map_to_row(nl, G30)
        scratch = {op.output_line for op in rp.ops
                   if op.output_line not in rp.output_columns.values()}
        assert len(scratch) <= 3
        for assign in assignments(nl.inputs):
            assert simulate_row_program(rp, assign) == nl.evaluate(assign)

    def test_capacity_error(self):
        text = ".inputs " + " ".join(f"i{k}" for k in range(10)) + "\n.outputs y\n"
        text += "\n".join(f"n{k} = NOT i{k}" for k in range(10)) + "\n"
        # wide fan-in tree to keep everything live
        text += "\n".join(f"p{k} = NOR n{2*k} n{2*k+1}" for k in range(5)) + "\n"
        text += "q0 = NOR p0 p1\nq1 = NOR p2 p3\nr0 = NOR q0 q1\ny = NOR r0 p4\n"
        nl = parse_netlist(text)
        with pytest.raises(RowCapacityError):
            map_to_row(nl, Geometry(15, 3))

    def test_all_bundled_fit_and_match(self):
        for name in ("mux2", "decoder3to8"):
            nl = load_bundled(name)
            rp = map_to_row(nl, G30)
            for assign in assignments(nl.inputs):
                assert simulate_row_program(rp, assign) == nl.evaluate(assign)


class TestInsertEcc:
    def test_pass_through_costs_nothing(self):
        _, rp, schedule = schedule_bundled("passthrough")
        assert schedule.total_cycles == 0
        assert schedule.baseline_cycles == 0
        assert schedule.actions == ()

    def test_pass_through_schedules_no_input_check_so_a_flip_reaches_the_output(self):
        nl, _, schedule = schedule_bundled("passthrough")
        a = schedule.input_columns["a"]
        run = execute_schedule(schedule, dict.fromkeys(nl.inputs, 0), flips=((0, a),))
        assert run.outputs == {"a": 1, "b": 0, "c": 0}
        assert (run.corrected, run.uncorrectable) == (0, 0)

    def test_schedule_path_allocates_no_crossbar_copy(self):
        # the blank machine's zeroed 1020 x 1020 cells are the one crossbar-
        # sized allocation: no copy of them, and no encoding temporaries
        geom = Geometry(1020, 15)
        nl = load_bundled("mux2")
        tracemalloc.start()
        try:
            insert_ecc(map_to_row(nl, geom), geom, TM, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_input_check_prepended_once(self):
        _, rp, schedule = schedule_bundled("full_adder")
        kinds = [a.kind for a in schedule.actions]
        assert kinds[0] is ActionKind.CHECK_ROW
        assert kinds.count(ActionKind.CHECK_ROW) == 1
        assert kinds.count(ActionKind.BLOCK_RESET) == len(rp.output_block_cols) == 1

    def test_critical_classification(self):
        _, rp, schedule = schedule_bundled("full_adder")
        out_cols = set(rp.output_columns.values())
        for action in schedule.actions:
            if action.kind is not ActionKind.OP:
                continue
            assert action.critical == (action.op.output_line in out_cols)
        # the two output gates are the only critical ops
        assert schedule.critical_ops == 2

    def test_output_inits_replaced_by_block_reset(self):
        _, rp, schedule = schedule_bundled("full_adder")
        out_cols = set(rp.output_columns.values())
        for action in schedule.actions:
            if action.kind is ActionKind.OP and action.op.kind is OpKind.INIT:
                assert action.op.output_line not in out_cols

    def test_single_critical_op_pipeline_shape(self):
        text = ".inputs a b\n.outputs y\ny = NOR a b\n"
        nl = parse_netlist(text)
        rp = map_to_row(nl, G30)
        schedule = insert_ecc(rp, G30, TM, 4)
        assert schedule.critical_ops == 1
        mem_cycles = {}
        for ev in schedule.events:
            if ev.unit == "MEM":
                for c in range(ev.cycle, ev.end):
                    mem_cycles.setdefault(ev.action, []).append(c)
        # critical op holds the MEM exactly 3 cycles: both copies + execute
        critical = [ev for ev in schedule.events
                    if ev.action == "op" and "critical=1" in ev.operands]
        assert len(critical) == 1
        t = critical[0].cycle
        assert set(mem_cycles["copy_old"]) >= {t - 1} or (t - 1) in mem_cycles["copy_old"]
        assert (t + 1) in mem_cycles["copy_new"]

    def test_gates_wait_for_input_check(self):
        _, rp, schedule = schedule_bundled("full_adder")
        chain = check_chain_cycles(G30.m, TM)
        first_op = min(ev.cycle for ev in schedule.events if ev.action == "op")
        assert first_op >= chain
        assert schedule.input_check_cycles == chain

    def test_consecutive_criticals_use_min_c_4_pairs(self):
        for c in (1, 2, 3, 4, 6):
            text = (".inputs a\n.outputs " + " ".join(f"y{k}" for k in range(c))
                    + "\n" + "\n".join(f"y{k} = NOT a" for k in range(c)) + "\n")
            nl = parse_netlist(text)
            rp = map_to_row(nl, G30)
            schedule = insert_ecc(rp, G30, TM, 4)
            # the input check's pair is free again before the first gate issues
            assert schedule.pc_pairs_used == min(c, 4)
            assert schedule.stall_cycles == 0

    def test_bad_pair_count(self):
        _, rp, _ = schedule_bundled("not_chain")
        with pytest.raises(ValueError):
            insert_ecc(rp, G30, TM, 0)


class TestExecuteSchedule:
    @pytest.mark.parametrize("name", ["not_chain", "mux2", "full_adder"])
    def test_semantic_preservation(self, name):
        nl, rp, schedule = schedule_bundled(name)
        for assign in assignments(nl.inputs):
            run = execute_schedule(schedule, assign)
            assert run.outputs == nl.evaluate(assign)
            assert run.corrected == 0 and run.uncorrectable == 0

    def test_unknown_or_missing_input_rejected_by_name(self):
        _, _, schedule = schedule_bundled("full_adder")
        with pytest.raises(NetlistError, match="'typo'"):
            execute_schedule(schedule, {"a": 1, "b": 0, "cin": 1, "typo": 1})
        with pytest.raises(NetlistError, match="'cin'"):
            execute_schedule(schedule, {"a": 1, "b": 0})

    @pytest.mark.parametrize("assign", [{"a": 1, "b": 0, "cin": 1, "typo": 1},
                                        {"a": 1, "b": 0}, {"typo": 0}])
    def test_oracle_and_machine_share_the_input_rule(self, assign):
        nl, _, schedule = schedule_bundled("full_adder")
        with pytest.raises(NetlistError) as oracle:
            nl.evaluate(assign)
        with pytest.raises(NetlistError) as machine:
            execute_schedule(schedule, assign)
        assert str(oracle.value) == str(machine.value)

    def test_ecc_consistency_of_covered_blocks(self):
        nl, rp, schedule = schedule_bundled("full_adder")
        run = execute_schedule(schedule, {"a": 1, "b": 0, "cin": 1})
        machine = run.machine
        for bc in set(rp.input_block_cols) | set(rp.output_block_cols):
            assert machine.block_consistent(0, bc)

    def test_flip_in_input_block_corrected(self):
        nl, rp, schedule = schedule_bundled("full_adder")
        assign = {"a": 1, "b": 1, "cin": 0}
        run = execute_schedule(schedule, assign, flips=((1, 1),))
        assert run.corrected == 1
        assert run.outputs == nl.evaluate(assign)

    def test_check_bit_flip_in_input_block_corrected(self):
        from xbarecc.geometry import Bank

        nl, rp, schedule = schedule_bundled("full_adder")
        assign = {"a": 1, "b": 0, "cin": 1}
        run = execute_schedule(schedule, assign,
                               check_flips=((Bank.LEADING, 1, 0, 0),))
        assert run.corrected == 1
        assert run.outputs == nl.evaluate(assign)
        assert run.machine.block_consistent(0, 0)

    @pytest.mark.parametrize("diag, block_row, block_col", [(-1, 0, 0), (3, 0, 0),
                                                             (0, -1, 0), (0, 0, 10)])
    def test_check_flip_outside_the_check_bits_rejected(self, diag, block_row, block_col):
        # 30/3: diagonals 0-2, block rows and columns 0-9
        from xbarecc.geometry import Bank, GeometryError

        _, _, schedule = schedule_bundled("full_adder")
        with pytest.raises(GeometryError):
            execute_schedule(schedule, {"a": 0, "b": 0, "cin": 0},
                             check_flips=((Bank.LEADING, diag, block_row, block_col),))

    def test_double_flip_reported_uncorrectable(self):
        nl, rp, schedule = schedule_bundled("full_adder")
        run = execute_schedule(schedule, {"a": 0, "b": 0, "cin": 0},
                               flips=((1, 0), (2, 1)))
        assert run.uncorrectable == 1

    def test_fault_run_costs_extra_cycles(self):
        nl, rp, schedule = schedule_bundled("full_adder")
        clean = execute_schedule(schedule, {"a": 0, "b": 0, "cin": 0})
        faulty = execute_schedule(schedule, {"a": 0, "b": 0, "cin": 0},
                                  flips=((1, 1),))
        assert clean.total_cycles == schedule.total_cycles
        assert faulty.total_cycles > clean.total_cycles


class TestReport:
    def test_overhead_arithmetic(self):
        _, rp, schedule = schedule_bundled("full_adder")
        stats = report(schedule)
        assert stats.baseline == schedule.baseline_cycles
        assert stats.proposed == schedule.total_cycles
        expected = 100.0 * (stats.proposed - stats.baseline) / stats.baseline
        assert stats.overhead_percent == pytest.approx(expected)
        assert stats.overhead_percent >= 0.0

    def test_geometric_mean(self):
        stats = [report(schedule) for _, _, schedule in
                 (schedule_bundled(n) for n in ("not_chain", "mux2", "full_adder"))]
        ratios = [s.proposed / s.baseline for s in stats]
        expect = np.exp(np.mean(np.log(ratios)))
        assert geometric_mean_ratio(stats) == pytest.approx(float(expect))

    def test_min_pc_pairs_bounded_and_stall_free(self):
        nl, rp, _ = schedule_bundled("ripple_adder4")
        k = min_pc_pairs(rp, TM)
        assert 1 <= k <= 8
        assert insert_ecc(rp, G30, TM, k).stall_cycles == 0
        if k > 1:
            assert insert_ecc(rp, G30, TM, k - 1).stall_cycles > 0

    def test_total_cycles_non_increasing_in_k(self):
        nl = load_bundled("ripple_adder4")
        rp = map_to_row(nl, G30)
        totals = [insert_ecc(rp, G30, TM, k).total_cycles for k in range(1, 7)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_schedule_deterministic(self):
        _, _, s1 = schedule_bundled("ripple_adder4")
        _, _, s2 = schedule_bundled("ripple_adder4")
        assert [e.to_line() for e in s1.events] == [e.to_line() for e in s2.events]


class TestAmortizedOverhead:
    def test_mem_busy_at_most_three_cycles_per_critical_op(self):
        # constant-per-op cost: each critical op adds <= 2 MEM cycles on top
        # of the op itself, independent of geometry
        for geom in (G30, Geometry(45, 9)):
            text = ".inputs a\n.outputs " + " ".join(f"y{k}" for k in range(6)) \
                + "\n" + "\n".join(f"y{k} = NOT a" for k in range(6)) + "\n"
            rp = map_to_row(parse_netlist(text), geom)
            schedule = insert_ecc(rp, geom, TM, 4)
            mem_busy = sum(ev.span for ev in schedule.events if ev.unit == "MEM")
            resets = sum(ev.span for ev in schedule.events
                         if ev.unit == "MEM" and "reset=1" in ev.operands)
            copies = sum(ev.span for ev in schedule.events
                         if ev.unit == "MEM" and ev.action == "copy_row")
            gate_ops = 6
            assert mem_busy - resets - copies <= 3 * gate_ops


# ----------------------------------------------------------------------
# min_pc_pairs read off one schedule, against the search it replaced

def bisected_min_pc_pairs(rp, tm):
    """Oracle: double k from 8 until stall-free or at least 64, then bisect
    [1, k] for the smallest stall-free pair count."""
    hi = 8
    while insert_ecc(rp, rp.geom, tm, hi).stall_cycles > 0 and hi < 64:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if insert_ecc(rp, rp.geom, tm, mid).stall_cycles == 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


@st.composite
def dag_row_programs(draw):
    """A random NOR/NOT DAG (at most 4 inputs, 10 gates, 6 outputs) mapped
    to 30/3, 45/3 or 45/5."""
    geom = draw(st.sampled_from((Geometry(30, 3), Geometry(45, 3), Geometry(45, 5))))
    values = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    lines = [".inputs " + " ".join(values)]
    for g in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("NOR", "NOT") if len(values) > 1 else ("NOT",)))
        arity = 2 if kind == "NOR" else 1  # a MAGIC NOR reads two distinct cells
        operands = draw(st.lists(st.sampled_from(values), min_size=arity,
                                 max_size=arity, unique=True))
        lines.append(f"g{g} = {kind} " + " ".join(operands))
        values.append(f"g{g}")
    outputs = draw(st.lists(st.sampled_from(values), min_size=1, max_size=6,
                            unique=True))
    lines.append(".outputs " + " ".join(outputs))
    return map_to_row(parse_netlist("\n".join(lines) + "\n"), geom)


def not_fan(count):
    """One input feeding `count` NOT gates, each an output."""
    outs = [f"y{k}" for k in range(count)]
    return parse_netlist(".inputs a\n.outputs " + " ".join(outs) + "\n"
                         + "".join(f"{y} = NOT a\n" for y in outs))


# xor3 and writeback long enough that some stalls never vanish (answer = cap)
timing_models = st.builds(TimingModel, xor3_cycles=st.integers(1, 60),
                          writeback_cycles=st.integers(1, 6))


class TestMinPcPairsExact:
    @settings(max_examples=80, deadline=None)
    @given(rp=dag_row_programs(), tm=timing_models)
    def test_matches_bisection(self, rp, tm):
        assert min_pc_pairs(rp, tm) == bisected_min_pc_pairs(rp, tm)

    @settings(max_examples=60, deadline=None)
    @given(rp=dag_row_programs(), tm=timing_models,
           k=st.sampled_from((1, 3, 64, 100)))
    def test_report_matches_bisection(self, rp, tm, k):
        stats = report(insert_ecc(rp, rp.geom, tm, k))
        assert stats.min_pc_pairs == bisected_min_pc_pairs(rp, tm)

    def test_stalls_that_never_vanish_give_the_cap(self):
        rp = map_to_row(not_fan(6), G30)
        tm = TimingModel(xor3_cycles=60, writeback_cycles=6)
        assert insert_ecc(rp, G30, tm, PAIR_CAP).stall_cycles > 0
        assert min_pc_pairs(rp, tm) == PAIR_CAP == 64
        assert bisected_min_pc_pairs(rp, tm) == PAIR_CAP

    def test_stall_free_schedule_past_the_cap_gives_the_cap(self):
        # 80 critical ops, each holding a pair for 304 cycles, 3 cycles apart
        geom = Geometry(105, 3)
        rp = map_to_row(not_fan(80), geom)
        tm = TimingModel(xor3_cycles=300)
        schedule = insert_ecc(rp, geom, tm, 100)
        assert schedule.stall_cycles == 0 and schedule.pc_pairs_used == 80
        assert report(schedule).min_pc_pairs == 64 == bisected_min_pc_pairs(rp, tm)
        assert min_pc_pairs(rp, tm) == 64
