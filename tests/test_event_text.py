"""The event log's text, rendered at the edge from the records' fields.

A machine's records keep their fields; :meth:`Event.to_line` renders them.
The oracle here is the text the machine built for each record when it
issued it, written out from what the machine knew then: the op, its
critical flag and the check-bits its write touches, worked out cell by
cell. The properties hold every rendered line to it, over random netlists
as one-row schedules and as widened all-lane runs, and read every written
schedule back into an equal one. ``simulate`` takes or refuses each of a
sample of mutated schedule files, never failing inside.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checkmem import oracle_names, touched_check_cells, written_cells
from test_scheduler import dag_row_programs

from xbarecc.checkmem import Machine, TimingModel, lane_footprint
from xbarecc.cli import EXIT_INPUT, EXIT_OK, main, read_schedule_file, write_schedule_file
from xbarecc.engine import CrossbarState, Orientation, format_op, init_op
from xbarecc.geometry import Bank, Geometry
from xbarecc.netlist import bundled_dir
from xbarecc.scheduler import ActionKind, build_actions, execute_schedule, insert_ecc, run_actions

GEOMS = (Geometry(30, 3), Geometry(45, 5), Geometry(63, 7))


def oracle_lines(events, geom: Geometry) -> list[str]:
    """Each record's line, its operands as the machine wrote them at issue
    time. A ``load_check`` or ``writeback`` record names the check-bits of
    the critical op before it."""
    lines, op = [], None
    for ev in events:
        fields = ev.fields
        if ev.action == "stall":
            waiting, at, wait = fields
            text = f"{waiting}={at} wait={wait}"
        elif ev.action in ("copy_old", "copy_new", "copy_row"):
            line, pair = fields
            text = f"line={line} pc={pair}"
        elif ev.action == "xor3":
            (line,) = fields
            text = f"line={line}"
        elif ev.action == "op" and len(fields) == 2:
            op, critical = fields
            text = format_op(op) + (" critical=1" if critical else " critical=0")
        elif ev.action == "op":  # a block reset's Init, one per line of the block
            block_row, block_col, offset, m = fields
            lanes = range(block_row * m, block_row * m + m)
            text = format_op(init_op(Orientation.ROW, block_col * m + offset, lanes))
            text += " critical=0 reset=1"
        elif ev.action in ("load_check", "writeback"):
            assert fields[1] == op.output_line
            text = "cells=" + oracle_names(touched_check_cells(*written_cells(op), geom), geom)
        elif ev.action in ("block_reset", "ecc_write"):
            block_row, block_col = fields
            text = f"block={block_row},{block_col}"
        elif ev.action == "check_row":
            index, orientation = fields
            text = f"index={index} orient={orientation.value}"
        elif ev.action == "xor3_tree":
            vectors, levels = fields
            text = f"vectors={vectors} levels={levels}"
        elif ev.action == "syndrome_xor3":
            assert fields == ()
            text = "banks=leading,counter"
        elif ev.action == "zero_compare":
            (blocks,) = fields
            text = f"blocks={blocks}"
        elif ev.action == "read_syndrome":
            block_row, block_col, kind = fields
            text = f"block={block_row},{block_col} result={kind.value}"
        elif ev.action == "correct_data":
            row, col = fields
            text = f"cell={row},{col}"
        elif ev.action == "correct_check":
            block_row, block_col, diag = fields
            text = f"block={block_row},{block_col} diag={diag}"
        else:
            raise AssertionError(f"a record of no logged action: {ev}")
        if ev.span != 1:
            text = (text + " " if text else "") + f"cycles={ev.span}"
        lines.append(f"{ev.cycle}\t{ev.unit}\t{ev.action}\t{text}")
    return lines


def assert_renders_and_reads_back(schedule) -> None:
    """Every record renders the oracle's line, and the written schedule
    reads back into an equal one, with footprints of its own: equal to the
    logged ones by what they are of."""
    assert [ev.to_line() for ev in schedule.events] == oracle_lines(schedule.events,
                                                                    schedule.geom)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.events"
        write_schedule_file(path, schedule)
        lane_footprint.cache_clear()
        assert read_schedule_file(path) == schedule


def widen(actions: tuple, geom: Geometry, orientation: Orientation) -> tuple:
    """A one-row action list on every row (ROW) or every column (COLUMN):
    every op writes all n lanes in that orientation, and the input check
    and each output-block reset are repeated along the other side."""
    lanes, lines = frozenset(range(geom.n)), range(geom.blocks_per_side)
    wide = []
    for action in actions:
        if action.kind is ActionKind.CHECK_ROW:
            wide += (replace(action, index=k, orientation=orientation) for k in lines)
        elif action.kind is ActionKind.BLOCK_RESET:
            out = action.block[1]
            wide += (replace(action, block=(k, out) if orientation is Orientation.ROW
                             else (out, k)) for k in lines)
        else:
            wide.append(replace(action, op=replace(action.op, lane_mask=lanes,
                                                   orientation=orientation)))
    return tuple(wide)


timings = st.builds(TimingModel, xor3_cycles=st.integers(1, 12),
                    copy_cycles=st.integers(1, 3), writeback_cycles=st.integers(1, 4))


class TestRenderedText:
    @settings(max_examples=40, deadline=None)
    @given(rp=dag_row_programs(GEOMS), tm=timings, k=st.integers(1, 4),
           flip=st.sampled_from(["data", "check"]), seed=st.integers(0, 2**16))
    def test_one_row_schedules_and_their_replays(self, rp, tm, k, flip, seed):
        schedule = insert_ecc(rp, rp.geom, tm, k)
        assert_renders_and_reads_back(schedule)
        # a replay with one flip in the checked block row logs its correction
        rng = np.random.default_rng(seed)
        geom, m = rp.geom, rp.geom.m
        block = int(rng.integers(geom.blocks_per_side))
        flips = ((int(rng.integers(m)), block * m + int(rng.integers(m))),)
        check_flips = ((Bank.COUNTER, int(rng.integers(m)), 0, block),)
        run = execute_schedule(schedule, dict.fromkeys(rp.netlist.inputs, 1),
                               **({"flips": flips} if flip == "data" else
                                  {"check_flips": check_flips}))
        if rp.ops:  # a pass-through checks nothing
            assert run.corrected == 1
        events = run.machine.events
        assert [ev.to_line() for ev in events] == oracle_lines(events, geom)

    @settings(max_examples=30, deadline=None)
    @given(rp=dag_row_programs(GEOMS), orientation=st.sampled_from(list(Orientation)),
           flip=st.sampled_from(["data", "check"]), k=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_widened_all_lane_runs(self, rp, orientation, flip, k, seed):
        geom, m = rp.geom, rp.geom.m
        rng = np.random.default_rng(seed)
        cells = np.zeros((geom.n, geom.n), dtype=np.uint8)
        plane = cells if orientation is Orientation.ROW else cells.T
        inputs = list(rp.input_columns.values())
        plane[:, inputs] = rng.integers(0, 2, size=(geom.n, len(inputs)), dtype=np.uint8)
        machine = Machine(CrossbarState(geom, cells), pc_pairs=k)
        line, lane = int(rng.integers(geom.n)), inputs[0]  # a cell of an input block
        if flip == "data":
            machine.inject_data_flip(*((line, lane) if orientation is Orientation.ROW
                                       else (lane, line)))
        else:
            block = (line // m, lane // m) if orientation is Orientation.ROW else (
                lane // m, line // m)
            machine.inject_check_flip(Bank.LEADING, int(rng.integers(m)), *block)
        actions = widen(build_actions(rp), geom, orientation)
        run = run_actions(machine, actions)
        if rp.ops:
            assert (run.corrected, run.uncorrectable) == (1, 0)
        schedule = replace(insert_ecc(rp, geom, TimingModel(), k), actions=actions,
                           events=tuple(machine.events), total_cycles=run.total_cycles)
        assert_renders_and_reads_back(schedule)


@pytest.fixture(scope="module")
def full_adder_events(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("schedule")
    assert main(["schedule", str(bundled_dir() / "full_adder.nl"), "--out-dir", str(out),
                 "-n", "30", "-m", "3", "-k", "3"]) == EXIT_OK
    return (out / "full_adder.events").read_text()


def mutate(text: str, rng: np.random.Generator) -> str:
    """One random edit of the file: a character replaced, deleted or
    inserted, or a line deleted, repeated or swapped with the next."""
    pool = "0123456789-=,;:@ \t\nabcdegiklmnoprstuvwxyzCLP#_"
    kind = int(rng.integers(6))
    k = int(rng.integers(len(text)))
    char = pool[int(rng.integers(len(pool)))]
    if kind == 0:
        return text[:k] + char + text[k + 1:]
    if kind == 1:
        return text[:k] + text[k + 1:]
    if kind == 2:
        return text[:k] + char + text[k:]
    lines = text.splitlines(keepends=True)
    k = int(rng.integers(len(lines) - 1))
    if kind == 3:
        del lines[k]
    elif kind == 4:
        lines.insert(k, lines[k])
    else:
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    return "".join(lines)


def test_mutated_schedule_files_are_taken_or_refused(full_adder_events, tmp_path, capsys):
    # 300 edits of one file: simulate exits 0 or 2 on each, with no traceback
    rng = np.random.default_rng(30)
    path, report = tmp_path / "mutant.events", tmp_path / "report.txt"
    codes = []
    for _ in range(300):
        path.write_text(mutate(full_adder_events, rng))
        codes.append(main(["simulate", str(path), "--inputs", "a=1,b=0,cin=1",
                           "--report", str(report)]))
        assert codes[-1] in (EXIT_OK, EXIT_INPUT), path.read_text()
    assert "Traceback" not in capsys.readouterr().err
    assert codes.count(EXIT_OK) > 30 and codes.count(EXIT_INPUT) > 30
