"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
import time
from pathlib import Path

import numpy as np

from run import import_program

import_program()

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from xbarecc import netlist, scheduler  # noqa: E402
from xbarecc.geometry import Geometry  # noqa: E402
from xbarecc.scheduler import ActionKind  # noqa: E402


def test_adder_generator_adds_every_input_of_a_small_width():
    bits = 3
    nl = netlist.parse_netlist(
        workloads.ripple_adder_text(bits, np.random.default_rng(5)), "adder3")
    assert len(nl.gates) == bits * len(netlist.load_bundled("full_adder").gates)
    for a in range(2**bits):
        for b in range(2**bits):
            for cin in (0, 1):
                out = nl.evaluate(workloads.adder_assignment(bits, a, b, cin))
                assert workloads.adder_sum(bits, out) == a + b + cin


def test_adder_line_order_follows_the_seed():
    text = lambda seed: workloads.ripple_adder_text(8, np.random.default_rng(seed))
    assert text(1) == text(1)
    assert text(1) != text(2)
    assert sorted(text(1).splitlines()) == sorted(text(2).splitlines())


def test_widening_changes_only_lane_masks_and_block_rows():
    geom = Geometry(45, 3)
    rp = scheduler.map_to_row(netlist.load_bundled("full_adder"), geom)
    narrow = scheduler.build_actions(rp)
    wide = workloads.widen(narrow, geom)
    nb = geom.blocks_per_side
    expected = []
    for action in narrow:
        if action.kind is ActionKind.CHECK_ROW:
            expected += [(action.kind, action.orientation, br) for br in range(nb)]
        elif action.kind is ActionKind.BLOCK_RESET:
            expected += [(action.kind, br, action.block[1]) for br in range(nb)]
        else:
            expected.append((action.kind, action.critical, action.op.kind,
                             action.op.input_lines, action.op.output_line))
    got = []
    for action in wide:
        if action.kind is ActionKind.CHECK_ROW:
            got.append((action.kind, action.orientation, action.index))
        elif action.kind is ActionKind.BLOCK_RESET:
            got.append((action.kind, *action.block))
        else:
            assert action.op.lane_mask == frozenset(range(geom.n))
            got.append((action.kind, action.critical, action.op.kind,
                        action.op.input_lines, action.op.output_line))
    assert got == expected


def test_simd_item_passes_its_checks_on_a_small_geometry(tmp_path):
    geom = Geometry(45, 3)
    wl = workloads.Simd(3, tmp_path, geom=geom, names=("full_adder", "mux2"))
    assert wl.check_item(wl.item()) == []
    cycles, overhead = wl.sim()
    assert cycles > 0 and overhead > 0


def test_simd_check_catches_a_wrong_output(tmp_path):
    geom = Geometry(45, 3)
    wl = workloads.Simd(3, tmp_path, geom=geom, names=("full_adder",))
    runs = wl.item()
    machine, _ = runs[0]
    col = wl.cases[0].program.output_columns["sum"]
    machine.state.cells[7, col] ^= 1
    assert any("sum wrong in 1 rows" in p for p in wl.check_item(runs))


def test_campaign_oracle_matches_the_cli_on_a_small_geometry(tmp_path):
    geom, p_bit, trials, seed = Geometry(45, 3), 0.01, 6, 11
    out = tmp_path / "inject.txt"
    assert workloads.quiet_main(
        ["inject", "--scope", "machine", "--pbit", str(p_bit), "--trials", str(trials),
         "--seed", str(seed), "-n", "45", "-m", "3", "--out", str(out)]) == 0
    rep = workloads.parse_inject_report(out.read_text())
    flips, failed = workloads.campaign_oracle(seed, trials, p_bit, geom)
    assert failed > 0
    assert (int(rep["flips_injected"]), int(rep["blocks_failed"])) == (flips, failed)


def test_campaign_item_and_replay_agree_on_a_small_geometry(tmp_path):
    wl = workloads.Campaign(4, tmp_path, geom=Geometry(45, 3))
    assert wl.check_item(wl.item()) == []
    assert wl.final_checks({}) == []
    cycles, _ = wl.sim()
    assert cycles >= wl.work * wl.clean_horizon


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    outer = tr.begin()
    clock.now += 1.0
    inner = tr.begin()
    clock.now += 2.0
    leaf = tr.begin()
    clock.now += 4.0
    tr.end("leaf", leaf)
    tr.end("inner", inner)
    clock.now += 8.0
    second = tr.begin()
    clock.now += 16.0
    tr.end("inner", second)
    tr.end("outer", outer)
    assert tr.spans["leaf"] == [1, 4.0, 4.0]
    assert tr.spans["inner"] == [2, 22.0, 18.0]
    assert tr.spans["outer"] == [1, 31.0, 9.0]
    assert sum(s[2] for s in tr.spans.values()) == tr.spans["outer"][1]


def test_instrumentation_counts_calls_and_restores_the_package():
    from xbarecc import checkmem, cli, parity

    before = (parity.compute_syndrome, checkmem.compute_syndrome,
              checkmem.Machine.__init__, cli.map_to_row)
    tr = spans.Tracer()
    with spans.Instrumentation(tr):
        assert checkmem.compute_syndrome is not before[1]
        nl = netlist.load_bundled("mux2")
        geom = Geometry(30, 3)
        sched = scheduler.insert_ecc(scheduler.map_to_row(nl, geom), geom,
                                     checkmem.TimingModel(), 3)
    assert (parity.compute_syndrome, checkmem.compute_syndrome,
            checkmem.Machine.__init__, cli.map_to_row) == before
    metrics = spans.layer_metrics(tr, 1)
    assert set(metrics) == {name for name, _ in spans.LAYER_METRICS}
    assert metrics["netlist.parse_netlist.self_s"]["value"] > 0
    assert metrics["scheduler.insert_ecc.calls"]["value"] == 1
    assert metrics["checkmem.machine_init.calls"]["value"] == 1
    assert metrics["checkmem.check_block_row.calls"]["value"] == 1
    assert metrics["checkmem.blocks_checked"]["value"] == geom.blocks_per_side
    assert metrics["parity.compute_syndrome.calls"]["value"] == geom.blocks_per_side
    assert metrics["checkmem.critical_op.calls"]["value"] == sched.critical_ops
    assert metrics["checkmem.critical_cells"]["value"] == sched.critical_ops
    assert metrics["checkmem.dirty_block_ratio"]["value"] == 0.0


def test_golden_compare_counts_each_digest():
    expected = {"schedule": {"a.events": "1", "a.stats": "2"}, "area": "3"}
    assert golden.compare(expected, expected) == (3, [])
    got = {"schedule": {"a.events": "1", "a.stats": "x"}, "area": "y"}
    compared, mismatches = golden.compare(expected, got)
    assert compared == 3 and len(mismatches) == 2


def test_golden_digests_match_the_package(tmp_path):
    assert golden.compare(golden.load(), golden.compute(tmp_path)) == (
        sum(len(v) if isinstance(v, dict) else 1 for v in golden.load().values()), [])


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)


def test_process_age_is_positive_and_grows():
    from run import process_age

    first = process_age()
    time.sleep(0.02)
    assert 0 < first < process_age()
