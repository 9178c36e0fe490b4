"""Command-line behavior: outputs, exit codes, determinism."""

import itertools
import shutil
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scheduler import dag_row_programs

from xbarecc import scheduler
from xbarecc.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SWEEP_POINTS,
    MAX_TRIALS,
    RunConfig,
    load_config,
    main,
    read_schedule_file,
    write_schedule_file,
)
from xbarecc.checkmem import Machine, TimingModel
from xbarecc.geometry import Geometry
from xbarecc.netlist import (
    Netlist,
    bundled_dir,
    load_bundled,
    load_netlist,
    parse_netlist,
)
from xbarecc.reliability import sweep_points


@pytest.fixture
def corpus_dir(tmp_path):
    dst = tmp_path / "corpus"
    dst.mkdir()
    for path in bundled_dir().iterdir():
        shutil.copy(path, dst / path.name)
    return dst


def fa_path(corpus_dir):
    return str(corpus_dir / "full_adder.nl")


SMALL = ["-n", "30", "-m", "3", "-k", "4"]


class TestScheduleCommand:
    def test_writes_stats_and_events(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["schedule", fa_path(corpus_dir), "--out-dir", str(out)] + SMALL)
        assert rc == EXIT_OK
        stats = (out / "full_adder.stats").read_text()
        for key in ("baseline_cycles=", "proposed_cycles=", "overhead_percent=",
                    "min_pc_pairs="):
            assert key in stats
        assert (out / "full_adder.events").exists()

    def test_operand_named_twice_names_the_file_line_and_gate(self, tmp_path, capsys):
        path = tmp_path / "twice.nl"
        path.write_text(".inputs a\n.outputs y\ny = NOR a a\n")
        rc = main(["schedule", str(path), "--out-dir", str(tmp_path / "out")] + SMALL)
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"xbarecc: input error: {path}: line 3: gate 'y' names operand 'a' twice\n")

    def test_corpus_mode_summary(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["schedule", str(corpus_dir), "--out-dir", str(out)] + SMALL)
        assert rc == EXIT_OK
        summary = (out / "corpus_summary.txt").read_text()
        assert "geomean_overhead_percent=" in summary
        assert summary.count("netlist=") == 6

    def test_malformed_netlist_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.nl"
        bad.write_text(".inputs a\n.outputs y\ny = NAND a a\n")
        assert main(["schedule", str(bad)] + SMALL) == EXIT_INPUT

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["schedule", str(tmp_path / "none.nl")]) == EXIT_INPUT

    def test_undecodable_netlist_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.nl"
        bad.write_bytes(b"\xff\xfe .inputs a\n")
        assert main(["schedule", str(bad)] + SMALL) == EXIT_INPUT

    def test_capacity_exceeded_is_input_error(self, corpus_dir):
        rc = main(["schedule", str(corpus_dir / "ripple_adder4.nl"),
                   "-n", "15", "-m", "3"])
        assert rc == EXIT_INPUT

    def test_one_schedule_per_netlist_and_no_fanout_scans(self, corpus_dir,
                                                          tmp_path, monkeypatch):
        # report reads min_pc_pairs off the schedule it gets; only a
        # schedule that stalls at k=3 is issued again, on a clean machine
        # at the cap
        geom, paths = Geometry(30, 3), sorted(corpus_dir.glob("*.nl"))
        stalling = sum(
            scheduler.insert_ecc(scheduler.map_to_row(load_netlist(path), geom),
                                 geom, TimingModel(), 3).stall_cycles > 0
            for path in paths)
        assert stalling >= 1
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scheduler, "run_actions",
                            counted("run_actions", scheduler.run_actions))
        monkeypatch.setattr(Netlist, "fanout", counted("fanout", Netlist.fanout))
        rc = main(["schedule", str(corpus_dir), "--out-dir", str(tmp_path / "out"),
                   "-n", "30", "-m", "3", "-k", "3"])
        assert rc == EXIT_OK
        assert calls["run_actions"] == len(paths) + stalling
        assert calls["fanout"] == 0


class TestSimulateCommand:
    def schedule(self, corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["schedule", fa_path(corpus_dir), "--out-dir", str(out)]
                    + SMALL) == EXIT_OK
        return out / "full_adder.events"

    def test_fault_free_run_matches_evaluation(self, corpus_dir, tmp_path, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        nl = load_bundled("full_adder")
        for a, b, cin in itertools.product((0, 1), repeat=3):
            rc = main(["simulate", str(events),
                       "--inputs", f"a={a},b={b},cin={cin}"])
            assert rc == EXIT_OK
            text = capsys.readouterr().out
            expect = nl.evaluate({"a": a, "b": b, "cin": cin})
            assert f"output.sum={expect['sum']}" in text
            assert f"output.cout={expect['cout']}" in text
            assert "corrected=0" in text

    def test_forced_flip_corrected(self, corpus_dir, tmp_path, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        rc = main(["simulate", str(events), "--inputs", "a=1,b=1,cin=1",
                   "--flip", "2,1"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "corrected=1" in text
        assert "output.sum=1" in text and "output.cout=1" in text

    def test_double_flip_uncorrectable(self, corpus_dir, tmp_path, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        rc = main(["simulate", str(events), "--inputs", "a=0,b=0,cin=0",
                   "--flip", "1,0", "--flip", "2,1"])
        assert rc == EXIT_OK
        assert "uncorrectable=1" in capsys.readouterr().out

    def test_block_status_lines(self, corpus_dir, tmp_path, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        main(["simulate", str(events), "--inputs", "a=0,b=1,cin=0"])
        text = capsys.readouterr().out
        assert "block.0.0=input:consistent" in text
        assert "block.0.1=output:consistent" in text

    def test_missing_inputs_is_input_error(self, corpus_dir, tmp_path, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        assert main(["simulate", str(events)]) == EXIT_INPUT

    def test_report_written_to_file(self, corpus_dir, tmp_path):
        events = self.schedule(corpus_dir, tmp_path)
        out = tmp_path / "run.report"
        rc = main(["simulate", str(events), "--inputs", "a=1,b=0,cin=0",
                   "--report", str(out)])
        assert rc == EXIT_OK
        assert "output.sum=1" in out.read_text()

    def test_garbage_schedule_file(self, tmp_path):
        bad = tmp_path / "bad.events"
        bad.write_text("not a schedule\n")
        assert main(["simulate", str(bad), "--inputs", "a=0"]) == EXIT_INPUT

    @pytest.mark.parametrize("old, new", [
        ("index=0", "index=x"), ("orient=row", "orient=diagonal"),
        ("pc_pairs=4", "pc_pairs=0"), ("pc_pairs=4", "pc_pairs=1025"),
        ("n=30 m=3", "n=4101 m=3"), ("xor3_cycles:8", "xor3_cycles:1001"),
        ("xor3_cycles:8", "xor3_cyclez:8"), ("xor3_cycles:8,", "")])
    def test_corrupt_schedule_record_is_input_error(self, corpus_dir, tmp_path,
                                                    old, new):
        events = self.schedule(corpus_dir, tmp_path)
        text = events.read_text()
        assert old in text
        events.write_text(text.replace(old, new, 1))
        assert main(["simulate", str(events), "--inputs", "a=0,b=0,cin=0"]) \
            == EXIT_INPUT

    @pytest.mark.parametrize("old, new", [
        ("inputs=a:0", "inputs=a:99"), ("inputs=a:0", "inputs=a:30"),
        ("inputs=a:0", "inputs=a:-1"), ("outputs=sum:3", "outputs=sum:99"),
        ("outputs=sum:3", "outputs=sum:-1")])
    def test_column_outside_the_row_is_input_error(self, corpus_dir, tmp_path,
                                                   old, new, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        text = events.read_text()
        assert old in text
        events.write_text(text.replace(old, new, 1))
        assert main(["simulate", str(events), "--inputs", "a=1,b=0,cin=0"]) \
            == EXIT_INPUT
        assert "outside [0, 30)" in capsys.readouterr().err

    def test_schedule_file_round_trip(self, corpus_dir, tmp_path):
        events = self.schedule(corpus_dir, tmp_path)
        replay = read_schedule_file(events)
        assert replay.geom.n == 30 and replay.geom.m == 3
        assert set(replay.input_columns) == {"a", "b", "cin"}
        assert any(a.critical for a in replay.actions)

    def test_timing_keys_read_back_in_any_order(self, corpus_dir, tmp_path):
        events = self.schedule(corpus_dir, tmp_path)
        timing = read_schedule_file(events).timing
        head, _, rest = events.read_text().partition("# meta timing=")
        keys, _, tail = rest.partition("\n")
        events.write_text(head + "# meta timing=" + ",".join(reversed(keys.split(",")))
                          + "\n" + tail)
        assert read_schedule_file(events).timing == timing

    def test_unknown_input_is_input_error(self, corpus_dir, tmp_path, capsys):
        events = self.schedule(corpus_dir, tmp_path)
        assert main(["simulate", str(events), "--inputs", "a=1,b=0,cin=1,typo=1"]) \
            == EXIT_INPUT
        assert "'typo'" in capsys.readouterr().err

    def test_cycle_past_int32_is_input_error(self, corpus_dir, tmp_path, monkeypatch,
                                             capsys):
        # a replay whose critical ops issue past cycle 2**31, as one after
        # ~2,150 check_row records at n = m = 999 with copy_cycles=1000 would
        events = self.schedule(corpus_dir, tmp_path)
        real = Machine.critical_op
        monkeypatch.setattr(Machine, "critical_op", lambda machine, op, earliest=0:
                            real(machine, op, earliest + 2**31))
        assert main(["simulate", str(events), "--inputs", "a=1,b=0,cin=0"]) == EXIT_INPUT
        assert "input error: Python integer" in capsys.readouterr().err

    @pytest.mark.parametrize("inputs", ["a=1,a=0,b=0,cin=0", "a=1,b=0,cin=0, a=1"])
    def test_repeated_input_is_usage_error(self, corpus_dir, tmp_path, capsys, inputs):
        events = self.schedule(corpus_dir, tmp_path)
        assert main(["simulate", str(events), "--inputs", inputs]) == EXIT_USAGE
        assert "'a' assigned more than once" in capsys.readouterr().err

    def test_netlist_name_with_a_space_survives_the_schedule_file(self, tmp_path,
                                                                  capsys):
        src = tmp_path / "full adder.nl"
        shutil.copy(bundled_dir() / "full_adder.nl", src)
        out = tmp_path / "out"
        assert main(["schedule", str(src), "--out-dir", str(out)] + SMALL) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", str(out / "full adder.events"),
                     "--inputs", "a=1,b=0,cin=1"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("netlist=full adder\n")

    def test_replaying_many_long_checks_keeps_memory_small(self, corpus_dir, tmp_path,
                                                           capsys):
        # every record's units are busy for about copy_cycles x m cycles; a
        # timeline that grew with busy cycles peaked at ~85 MiB here
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("copy_cycles=1000\n")
        out = tmp_path / "out"
        assert main(["schedule", str(corpus_dir / "mux2.nl"), "--out-dir", str(out),
                     "--config", str(cfgfile)] + SMALL) == EXIT_OK
        events = out / "mux2.events"
        lines = events.read_text().splitlines()
        check = next(line for line in lines if "\tcheck_row\t" in line)
        events.write_text("\n".join(lines + [check] * 200) + "\n")
        tracemalloc.start()
        try:
            assert main(["simulate", str(events), "--inputs", "a=0,b=1,sel=1"]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "output.y=1" in capsys.readouterr().out
        assert peak < 8 * 2**20


def assert_round_trip(schedule, directory: Path):
    """A written schedule reads back into an equal one with an equal report."""
    path = directory / f"{schedule.name}.events"
    write_schedule_file(path, schedule)
    back = read_schedule_file(path)
    assert back == schedule
    assert scheduler.report(back) == scheduler.report(schedule)


class TestScheduleFileRoundTrip:
    @pytest.mark.parametrize("n, m", [(30, 3), (1020, 15)])
    def test_bundled_corpus(self, n, m, tmp_path):
        geom = Geometry(n, m)
        for path in sorted(bundled_dir().glob("*.nl")):
            rp = scheduler.map_to_row(load_netlist(path), geom)
            assert_round_trip(scheduler.insert_ecc(rp, geom, TimingModel(), 3), tmp_path)

    def test_name_with_a_space(self, tmp_path):
        nl = parse_netlist((bundled_dir() / "mux2.nl").read_text(), name="two way mux")
        geom = Geometry(30, 3)
        rp = scheduler.map_to_row(nl, geom)
        assert_round_trip(scheduler.insert_ecc(rp, geom, TimingModel(), 2), tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(rp=dag_row_programs(),
           tm=st.builds(TimingModel, **{f.name: st.integers(1, 40)
                                        for f in fields(TimingModel)}),
           k=st.integers(1, 6))
    def test_random_dags(self, rp, tm, k):
        with tempfile.TemporaryDirectory() as directory:
            assert_round_trip(scheduler.insert_ecc(rp, rp.geom, tm, k), Path(directory))


class TestInjectCommand:
    def test_block_scope_report(self, capsys):
        rc = main(["inject", "--scope", "block", "--pbit", "0.01",
                   "--trials", "20000", "-m", "15", "--seed", "5"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "closed_form_in_ci=yes" in text

    def test_machine_scope_report(self, capsys):
        rc = main(["inject", "--scope", "machine", "--pbit", "0.002",
                   "--trials", "2", "-n", "30", "-m", "3", "--seed", "3"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "blocks_observed=200" in text
        assert "flips_injected=" in text

    def test_machine_scope_report_text_is_pinned(self, capsys):
        rc = main(["inject", "--scope", "machine", "-n", "45", "-m", "5",
                   "--pbit", "0.01", "--trials", "6", "--seed", "11"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == (
            "scope=machine n=45 m=5 p_bit=0.01 trials=6 seed=11\n"
            "flips_injected=125\n"
            "corrected=99\n"
            "uncorrectable=26\n"
            "miscorrected=0\n"
            "silent=0\n"
            "blocks_observed=486\n"
            "blocks_failed=12\n"
            "failed_block_frequency=0.02469135802\n"
            "closed_form_block_failure=0.0257591054\n")

    @pytest.mark.parametrize("flags", [
        ["--scope", "machine", "--trials", "0"],
        ["--scope", "block", "--trials", "9999"],
        ["--pbit", "2"],
        ["--pbit", "nan"],
        ["--pbit", "-0.5"],
        ["--seed", "-1"],
        ["-k", "0"],
    ])
    def test_bad_flag_value_is_a_usage_error(self, flags, capsys):
        args = ["inject", "--pbit", "0.01", "-n", "30", "-m", "3"] + flags
        assert main(args) == EXIT_USAGE
        assert "xbarecc: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "-3", "4"])
    def test_block_scope_rejects_an_impossible_block(self, m, capsys):
        rc = main(["inject", "--scope", "block", "--pbit", "0.1",
                   "--trials", "10000", "-m", m])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert "odd and at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("scope", ["block", "machine"])
    def test_trials_past_the_bound_are_a_usage_error(self, scope, capsys):
        # rejected before any trial is drawn or machine built
        rc = main(["inject", "--scope", scope, "--pbit", "0.01",
                   "--trials", str(MAX_TRIALS + 1)])
        assert rc == EXIT_USAGE
        assert f"at most {MAX_TRIALS}" in capsys.readouterr().err


class TestReliabilityCommand:
    def test_csv_includes_reference_rates_and_improvement(self, capsys):
        assert main(["reliability"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda_fit,mttf_baseline_h,mttf_proposed_h,improvement"
        rates = [float(line.split(",")[0]) for line in lines[1:]]
        for lam in (1e-5, 3.72759e-5, 19.307, 1000.0):
            assert any(abs(g - lam) / lam < 1e-5 for g in rates)
        flash = next(line for line in lines[1:]
                     if abs(float(line.split(",")[0]) - 1e-3) < 1e-9)
        assert float(flash.split(",")[3]) > 3e8

    def test_inverted_range_is_usage_error(self):
        assert main(["reliability", "--lambda-min", "10",
                     "--lambda-max", "0.1"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--points-per-decade", "--lambda-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_sizing_flag_is_usage_error(self, flag, value, capsys):
        assert main(["reliability", flag, value]) == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--t-hours", "inf"), ("--t-hours", "nan"), ("--t-hours", "0"),
        ("--t-hours", "-1"), ("--capacity-bits", "0"), ("--capacity-bits", "-1"),
        ("--points-per-decade", "0"), ("--points-per-decade", "-1")])
    def test_non_positive_or_non_finite_flag_is_usage_error(self, flag, value,
                                                            capsys):
        assert main(["reliability", flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any sweep runs
        assert "xbarecc: error:" in captured.err

    def test_internal_value_error_is_not_an_input_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("broken invariant")
        monkeypatch.setattr("xbarecc.cli.sweep", broken)
        assert main(["reliability"]) == EXIT_INTERNAL
        assert "internal invariant violated" in capsys.readouterr().err

    # one decade at MAX_SWEEP_POINTS - 1 points per decade is the largest
    # grid; 1e308 points per decade over the default eight decades is inf
    @pytest.mark.parametrize("argv", [
        ["--lambda-min", "1", "--lambda-max", "10", "--points-per-decade",
         str(MAX_SWEEP_POINTS)],
        ["--points-per-decade", "1e308"]])
    def test_grid_past_the_bound_is_usage_error(self, argv, capsys):
        assert sweep_points(1.0, 10.0, MAX_SWEEP_POINTS - 1) == MAX_SWEEP_POINTS
        assert main(["reliability", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exceeds {MAX_SWEEP_POINTS}" in captured.err


class TestAreaCommand:
    def test_default_matches_reference_counts(self, capsys):
        assert main(["area"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "1040400" in text and "138720" in text and "67320" in text
        assert "2040" in text and "61200" in text and "14280" in text
        assert "1248480" in text and "75480" in text

    def test_small_geometry_consistent(self, capsys):
        assert main(["area", "-n", "9", "-m", "3", "-k", "1"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "81" in text and "54" in text

    def test_bad_geometry(self, capsys):
        assert main(["area", "-n", "10", "-m", "3"]) == EXIT_INPUT

    def test_zero_pc_pairs_is_usage_error(self, capsys):
        assert main(["area", "-k", "0"]) == EXIT_USAGE

    def test_sizes_past_their_bounds(self, capsys):
        # 17 divides 4097, so only the size bound rejects it
        assert main(["area", "-n", "4097", "-m", "17"]) == EXIT_INPUT
        assert main(["area", "-k", "1025"]) == EXIT_USAGE
        assert main(["area", "-n", "4095", "-m", "15", "-k", "1024"]) == EXIT_OK


class TestConfig:
    def test_load_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=30\nblock_size=3\npc_pairs=2\nxor3_cycles=6\n")
        cfg = load_config(str(cfgfile))
        assert cfg == RunConfig(n=30, block_size=3, pc_pairs=2,
                                timing=TimingModel(xor3_cycles=6))

    def test_every_timing_key_reaches_schedule_and_replay(self, corpus_dir,
                                                          tmp_path, capsys):
        timing = TimingModel(xor3_cycles=5, copy_cycles=2, writeback_cycles=3,
                             controller_read_cycles=4, correction_write_cycles=6,
                             zero_compare_cycles=7)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{f.name}={getattr(timing, f.name)}\n"
                                   for f in fields(TimingModel)))
        assert load_config(str(cfgfile)).timing == timing
        out = tmp_path / "out"
        assert main(["schedule", fa_path(corpus_dir), "--out-dir", str(out),
                     "--config", str(cfgfile)] + SMALL) == EXIT_OK
        events = out / "full_adder.events"
        assert ("# meta timing=xor3_cycles:5,copy_cycles:2,writeback_cycles:3,"
                "controller_read_cycles:4,correction_write_cycles:6,"
                "zero_compare_cycles:7") in events.read_text().splitlines()
        replay = read_schedule_file(events)
        assert replay.timing == timing
        # the replay's cycles follow the file's timing, correction costs included
        geom = Geometry(30, 3)
        sched = scheduler.insert_ecc(scheduler.map_to_row(load_bundled("full_adder"),
                                                          geom), geom, timing, 4)
        run = scheduler.execute_schedule(sched, {"a": 1, "b": 0, "cin": 1},
                                         flips=((1, 1),))
        capsys.readouterr()
        assert main(["simulate", str(events), "--inputs", "a=1,b=0,cin=1",
                     "--flip", "1,1"]) == EXIT_OK
        text = capsys.readouterr().out
        assert f"scheduled_cycles={sched.total_cycles}\n" in text
        assert f"actual_cycles={run.total_cycles}\n" in text
        assert run.total_cycles > sched.total_cycles

    @pytest.mark.parametrize("line", [
        "xor3_cycles=0", "pc_pairs=0", "seed=-1", "pc_pairs=1025",
        "n=4097\nblock_size=17",
        *(f"{f.name}=1001" for f in fields(TimingModel))])
    def test_out_of_range_value_is_input_error(self, tmp_path, line, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        assert main(["area", "--config", str(cfgfile)]) == EXIT_INPUT

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate=1\n")
        assert main(["area", "--config", str(cfgfile)]) == EXIT_INPUT

    def test_flags_override_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=1020\nblock_size=15\n")
        assert main(["area", "--config", str(cfgfile), "-n", "9", "-m", "3"]) == EXIT_OK
        assert "81" in capsys.readouterr().out

    def test_usage_error_from_argparse(self):
        assert main(["__nope__"]) == EXIT_USAGE


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, corpus_dir, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["schedule", str(corpus_dir), "--out-dir", str(out)]
                        + SMALL) == EXIT_OK
        capsys.readouterr()
        for name in ("corpus_summary.txt", "full_adder.events", "full_adder.stats",
                     "ripple_adder4.events", "decoder3to8.stats"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reliability_csv_deterministic(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            assert main(["reliability", "--out", str(f)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_inject_deterministic(self, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            assert main(["inject", "--scope", "block", "--pbit", "0.01",
                         "--trials", "10000", "-m", "3", "--seed", "11",
                         "--out", str(f)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()
