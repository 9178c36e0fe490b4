"""The verdicts of the A/B runner ``tools/ab.py``: pure functions of the
per-pair results."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


class TestClaimVerdict:
    def test_nine_of_ten_wins_and_a_clear_gap_hold(self):
        change = [p + 20 for p in PARENT[:9]] + [PARENT[9] - 1]
        wins, holds, why = ab.claim_verdict(PARENT, change, higher_is_better=True)
        assert (wins, holds) == (9, True)
        assert "9/10 pairs won (need 9)" in why

    def test_eight_of_ten_wins_do_not_hold(self):
        change = [p + 20 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
        wins, holds, _ = ab.claim_verdict(PARENT, change, higher_is_better=True)
        assert (wins, holds) == (8, False)

    def test_a_tie_is_not_a_win(self):
        change = [p + 20 for p in PARENT[:9]] + [PARENT[9]]
        assert ab.claim_verdict(PARENT, change, True)[:2] == (9, True)
        change = [p + 20 for p in PARENT[:8]] + PARENT[8:]
        assert ab.claim_verdict(PARENT, change, True)[:2] == (8, False)
        assert ab.claim_verdict(PARENT, PARENT, True)[:2] == (0, False)

    def test_every_pair_won_by_less_than_the_parent_iqr_does_not_hold(self):
        # parent IQR is 4.5; a uniform +1 wins every pair but is inside it
        wins, holds, why = ab.claim_verdict(PARENT, [p + 1 for p in PARENT], True)
        assert (wins, holds) == (10, False)
        assert "median gap 1 vs parent IQR 4.5" in why

    def test_lower_is_better_flips_the_sign(self):
        change = [p - 20 for p in PARENT]
        assert ab.claim_verdict(PARENT, change, higher_is_better=False)[:2] == (10, True)
        assert ab.claim_verdict(PARENT, change, higher_is_better=True)[:2] == (0, False)

    def test_one_pair_needs_its_one_win(self):
        assert ab.claim_verdict([1.0], [2.0], True)[:2] == (1, True)
        assert ab.claim_verdict([1.0], [1.0], True)[:2] == (0, False)


class TestBoundVerdict:
    def test_within_the_bound_is_ok(self):
        change = [p * 0.9 for p in PARENT]
        rel, verdict = ab.bound_verdict(PARENT, change, higher_is_better=True, bound=0.25)
        assert verdict == "ok" and rel == pytest.approx(-0.1)

    def test_past_the_bound_is_worse(self):
        change = [p * 1.3 for p in PARENT]
        assert ab.bound_verdict(PARENT, change, False, 0.25)[1] == "WORSE"
        assert ab.bound_verdict(PARENT, change, True, 0.25)[1] == "ok"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.0, 2.0, 3.0]  # IQR 1.25 around a median of 1.5
        assert ab.bound_verdict(parent, [9.0] * 4, False, 0.25)[1] == "unresolved"

    def test_identical_sides_are_ok(self):
        assert ab.bound_verdict([5458] * 3, [5458] * 3, False, 0.25) == (0.0, "ok")

    def test_a_zero_parent_median(self):
        assert ab.bound_verdict([0.0] * 3, [0.0] * 3, False, 0.25) == (0.0, "ok")
        rel, verdict = ab.bound_verdict([0.0] * 3, [1.0] * 3, False, 0.25)
        assert (rel, verdict) == (math.inf, "WORSE")
        assert ab.bound_verdict([0.0] * 3, [1.0] * 3, True, 0.25) == (math.inf, "ok")
        assert ab.bound_verdict([0.0] * 3, [-1.0] * 3, True, 0.25) == (-math.inf, "WORSE")
        # a spread around a zero median cannot be read relative to it
        assert ab.bound_verdict([-1.0, 0.0, 1.0], [0.0] * 3, True, 0.25)[1] == "unresolved"


def traced_runs(layers: dict[str, list[float]]) -> list[dict]:
    """``--trace 1`` metrics of one run per index, from each layer's values."""
    runs = len(next(iter(layers.values())))
    return [{name: {"value": values[k]} for name, values in layers.items()}
            for k in range(runs)]


PER_LAYER = [{"name": "checkmem.machine_init.self_s", "unit": "s"},
             {"name": "checkmem.check_block_row.calls", "unit": "count"},
             {"name": "checkmem.check_block_row.self_s", "unit": "s"},
             {"name": "checkmem.block_ecc_reset.self_s", "unit": "s"},
             {"name": "engine.format_op.bytes", "unit": "bytes"}]
NOISE = [1.00, 0.97, 1.04, 0.99, 1.02, 0.96, 1.03]  # one host's run-to-run spread


def host_runs(drift: float, phase: int = 0,
              scale: dict[str, float] | None = None) -> list[dict]:
    """Seven synthetic runs of one side: every time, the reference kernel's
    included, scaled by the host's ``drift`` and by its run's noise, which
    ``phase`` rotates, and a metric named in ``scale`` by that factor too;
    counts and bytes exact."""
    base = {"reference_kernel_s": 0.06,
            "checkmem.machine_init.self_s": 2e-4, "checkmem.check_block_row.calls": 68.0,
            "checkmem.check_block_row.self_s": 0.05, "checkmem.block_ecc_reset.self_s": 0.02,
            "engine.format_op.bytes": 4096.0}
    layers = {}
    for name, value in base.items():
        value *= (scale or {}).get(name, 1.0)
        timed = name.endswith("_s")
        # each layer sees its own share of the noise, rotated per layer
        shift = len(layers)
        layers[name] = [value * drift * NOISE[(k + shift + phase) % 7] if timed else value
                        for k in range(7)]
    return traced_runs(layers)


def verdicts(lines) -> dict[str, str]:
    """Each line's verdict by its metric's name."""
    words = {"moved", "same", "unresolved", "reference"}
    return {line.split()[0]: next(w for w in line.split() if w in words) for line in lines}


class TestLayerVerdict:
    def test_a_side_against_itself_flags_nothing(self):
        runs = host_runs(1.0)
        lines = ab.layer_lines(PER_LAYER, runs, runs)
        assert set(verdicts(lines).values()) == {"reference", "same"}

    def test_host_drift_alone_flags_nothing(self):
        # the change side runs on a host 15% slower: every time rises alike
        lines = ab.layer_lines(PER_LAYER, host_runs(1.0), host_runs(1.15, 3))
        assert verdicts(lines) == {
            "reference_kernel_s": "reference",
            "checkmem.machine_init.self_s": "unresolved",
            "checkmem.check_block_row.calls": "same",
            "checkmem.check_block_row.self_s": "unresolved",
            "checkmem.block_ecc_reset.self_s": "unresolved",
            "engine.format_op.bytes": "same"}

    def test_the_layer_that_fell_is_named_through_the_drift(self):
        change = host_runs(1.15, 3, {"checkmem.check_block_row.self_s": 0.6})
        got = verdicts(ab.layer_lines(PER_LAYER, host_runs(1.0), change))
        assert got["checkmem.check_block_row.self_s"] == "moved"
        assert got["checkmem.block_ecc_reset.self_s"] == "unresolved"

    def test_a_change_within_the_spread_is_unresolved(self):
        change = host_runs(1.0, 5, {"checkmem.block_ecc_reset.self_s": 1.02})
        got = verdicts(ab.layer_lines(PER_LAYER, host_runs(1.0), change))
        assert got["checkmem.block_ecc_reset.self_s"] == "unresolved"

    def test_an_exact_count_that_changed_is_moved_without_timing(self):
        change = host_runs(1.3, 1, {"checkmem.check_block_row.calls": 2.0,
                                       "engine.format_op.bytes": 0.5})
        got = verdicts(ab.layer_lines(PER_LAYER, host_runs(1.0), change))
        assert got["checkmem.check_block_row.calls"] == "moved"
        assert got["engine.format_op.bytes"] == "moved"

    def test_a_time_moves_only_if_its_ratio_to_the_reference_moves_the_same_way(self):
        parent, change = [1.0, 1.1, 1.2], [2.0, 2.1, 2.2]
        assert ab.layer_verdict(parent, change) == "moved"
        assert ab.layer_verdict(parent, change, ([1.0, 1.1, 1.2], [2.0, 2.1, 2.2])) == "moved"
        assert ab.layer_verdict(parent, change, ([1.0, 1.1, 1.2], [1.0, 1.1, 1.2])) == "unresolved"
        assert ab.layer_verdict(parent, change, ([2.0, 2.1, 2.2], [1.0, 1.1, 1.2])) == "unresolved"
        assert ab.layer_verdict(parent, change, ([], [])) == "unresolved"  # no reference

    def test_machine_init_is_judged_like_any_other_layer(self):
        change = host_runs(1.15, 3, {"checkmem.machine_init.self_s": 0.6})
        got = verdicts(ab.layer_lines(PER_LAYER, host_runs(1.0), change))
        assert got["checkmem.machine_init.self_s"] == "moved"
        assert got["reference_kernel_s"] == "reference"

    def test_the_line_shows_medians_spreads_change_and_calls(self):
        parent = traced_runs({"reference_kernel_s": [0.9, 1.0, 1.1],
                              "checkmem.check_block_row.calls": [68.0, 68.0, 68.0],
                              "checkmem.check_block_row.self_s": [0.4, 0.5, 0.6]})
        change = traced_runs({"reference_kernel_s": [1.0, 1.0, 1.0],
                              "checkmem.check_block_row.calls": [68.0, 68.0, 68.0],
                              "checkmem.check_block_row.self_s": [0.2, 0.25, 0.3]})
        reference, line = ab.layer_lines(PER_LAYER[2:3], parent, change)
        assert reference.split() == ["reference_kernel_s", "1", "(0.1)", "->", "1", "(0)",
                                     "+0.0%", "reference", "IQR", "10.0%", "->", "0.0%",
                                     "of", "median"]
        assert line.split() == ["checkmem.check_block_row.self_s", "0.5", "(0.1)", "->",
                                "0.25", "(0.05)", "-50.0%", "moved", "calls", "68", "->", "68"]

    def test_a_missing_side_is_unresolved(self):
        runs = traced_runs({"reference_kernel_s": [1.0, 1.0, 1.0]})
        _, line = ab.layer_lines([{"name": "x.calls", "unit": "count"}], runs, runs)
        assert line.split() == ["x.calls", "-", "->", "-", "unresolved"]
        (reference,) = ab.layer_lines([], [{}], [{}])
        assert reference.split() == ["reference_kernel_s", "-", "->", "-", "unresolved"]


def test_the_reference_is_the_median_of_the_detail_lines_kernel_times():
    detail = {"item_s": [0.5, 0.6, 0.7], "reference_kernel_s": [0.06, 0.09, 0.05]}
    result = {"correct": True, "failed": 0,
              "metrics": {"checkmem.machine_init.calls": {"value": 1.0, "unit": "count"}}}
    stdout = "\n".join(["simd = 1.0 lanes/s (host time)", "# detail " + json.dumps(detail),
                        json.dumps(result)])
    got = ab.read_result(stdout)
    assert got["metrics"] == {"checkmem.machine_init.calls": {"value": 1.0, "unit": "count"},
                              "reference_kernel_s": {"value": 0.06, "unit": "s"}}
    assert (got["correct"], got["failed"]) == (True, 0)


@pytest.mark.parametrize("layers", ["1", "2", "3", "4"])
def test_fewer_than_five_traced_runs_are_refused(layers, tmp_path):
    with pytest.raises(SystemExit, match="at least 5 runs"):
        ab.main([str(tmp_path), str(tmp_path), "--workload", "simd", "--layers", layers])


SPEC = {"end_to_end": [{"name": "work_per_ref_s", "better": "higher", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
                       {"name": "sim_cycles", "better": "lower", "bound": 0.25}],
        "per_layer": PER_LAYER}


def untraced(rate: float, failed: int = 0) -> dict:
    """One synthetic ``--trace 0`` result, as :func:`ab.read_result` returns it."""
    return {"correct": True, "failed": failed,
            "metrics": {"work_per_ref_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mb": {"value": 80.0, "unit": "MB"},
                        "sim_cycles": {"value": 23458, "unit": "cycles"},
                        "reference_kernel_s": {"value": 0.06, "unit": "s"}}}


def synthetic_sides(pairs: int = 10) -> dict[str, list[dict]]:
    """A change that wins every pair by a fifth, the simulated cycles equal."""
    return {"parent": [untraced(100.0 + k) for k in range(pairs)],
            "change": [untraced(120.0 + k) for k in range(pairs)]}


class TestRecord:
    ARGS = ab.parse_args(["p", "c", "--workload", "campaign", "--pairs", "10",
                          "--seconds", "8", "--first-seed", "31"])
    TREES = {"parent": {"commit": "a" * 40, "dirty": False},
             "change": {"commit": "a" * 40, "dirty": True}}
    HOST = {"python": "3.11.7", "numpy": "2.4.6", "cpus": 2, "machine": "x86_64"}

    def test_holds_trees_host_seeds_pairs_verdicts_and_claim(self):
        results = synthetic_sides()
        record = ab.build_record(self.ARGS, SPEC, self.TREES, self.HOST, results, None)
        assert json.loads(json.dumps(record)) == record  # plain JSON
        assert (record["workload"], record["seconds"]) == ("campaign", 8.0)
        assert record["seeds"] == list(range(31, 41))
        assert (record["trees"], record["host"]) == (self.TREES, self.HOST)
        assert [p["first"] for p in record["pairs"][:3]] == ["parent", "change", "parent"]
        first = record["pairs"][0]
        assert first["seed"] == 31 and first["parent"]["failed"] == 0
        assert first["change"]["metrics"] == {"work_per_ref_s": 120.0, "peak_rss_mb": 80.0,
                                              "sim_cycles": 23458,
                                              "reference_kernel_s": 0.06}
        rows = {row["name"]: row for row in record["metrics"]}
        assert list(rows) == ["work_per_ref_s", "peak_rss_mb", "sim_cycles"]
        rate = rows["work_per_ref_s"]
        assert rate["parent"] == list(ab.quartiles([100.0 + k for k in range(10)]))
        assert rate["change"][1] == 124.5 and rate["rel"] == pytest.approx(20 / 104.5)
        assert (rate["wins"], rate["same"], rate["verdict"]) == (10, 0, "ok")
        assert (rows["sim_cycles"]["same"], rows["sim_cycles"]["rel"]) == (10, 0.0)
        _, _, why = ab.claim_verdict([100.0 + k for k in range(10)],
                                     [120.0 + k for k in range(10)], True)
        assert record["claim"] == {"metric": "work_per_ref_s", "wins": 10, "needed": 9,
                                   "holds": True, "why": why}
        assert "layers" not in record

    def test_traced_runs_add_each_layers_verdict(self):
        change = host_runs(1.15, 3, {"checkmem.check_block_row.self_s": 0.6})
        record = ab.build_record(self.ARGS, SPEC, self.TREES, self.HOST, synthetic_sides(),
                                 {"parent": host_runs(1.0), "change": change})
        layers = record["layers"]
        assert (layers["runs"], layers["seed"]) == (7, 31)
        verdicts = {row["name"]: row["verdict"] for row in layers["rows"]}
        assert verdicts == {
            "reference_kernel_s": "reference",
            "checkmem.machine_init.self_s": "unresolved",
            "checkmem.check_block_row.calls": "same",
            "checkmem.check_block_row.self_s": "moved",
            "checkmem.block_ecc_reset.self_s": "unresolved",
            "engine.format_op.bytes": "same"}
        row = next(r for r in layers["rows"] if r["name"] == "checkmem.check_block_row.self_s")
        assert row["calls"] == [68.0, 68.0]
        assert row["rel"] == pytest.approx(1.15 * 0.6 - 1, abs=0.05)

    def test_the_claim_is_read_on_the_metric_named(self):
        sides = synthetic_sides()
        for run in sides["change"]:
            run["metrics"]["peak_rss_mb"]["value"] = 76.0  # a lower peak wins
        args = ab.parse_args(["p", "c", "--workload", "simd", "--claim", "peak_rss_mb"])
        record = ab.build_record(args, SPEC, self.TREES, self.HOST, sides, None)
        assert record["claim"] == {
            "metric": "peak_rss_mb", "wins": 10, "needed": 9, "holds": True,
            "why": "10/10 pairs won (need 9), median gap 4 vs parent IQR 0"}

    def test_a_claim_on_no_end_to_end_metric_is_refused(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
        with pytest.raises(SystemExit, match="--claim setup is not an end-to-end metric"):
            ab.main([str(tmp_path), str(tmp_path), "--workload", "simd", "--claim", "setup"])

    def test_five_traced_runs_per_side_are_made(self, tmp_path, monkeypatch, capsys):
        traces = []

        def run_once(checkout, workload, seed, seconds, trace=0):
            traces.append((seed, trace))
            return untraced(100.0)

        monkeypatch.setattr(ab, "run_once", run_once)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
        assert ab.main([str(tmp_path), str(tmp_path), "--workload", "simd", "--pairs", "1",
                        "--first-seed", "4", "--layers", "5"]) == 0
        assert traces == [(4, 0)] * 2 + [(4, 1)] * 10
        assert "per-layer metrics, 5 runs per side" in capsys.readouterr().out

    def test_main_writes_the_record_without_running_git_or_the_benchmark(
            self, tmp_path, monkeypatch, capsys):
        rates = iter([100.0, 120.0, 125.0, 104.0, 102.0, 118.0])  # alternating order
        monkeypatch.setattr(ab, "run_once", lambda *args, **kw: untraced(next(rates)))
        monkeypatch.setattr(ab, "tree", lambda checkout: {"commit": None, "dirty": None})
        monkeypatch.setattr(ab, "host", lambda: self.HOST)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
        path = tmp_path / "BENCH_0_campaign.json"
        assert ab.main([str(tmp_path), str(tmp_path), "--workload", "campaign", "--pairs",
                        "3", "--seconds", "1", "--record", str(path)]) == 0
        assert f"record written to {path}" in capsys.readouterr().out
        record = json.loads(path.read_text())
        assert [(p["parent"]["metrics"]["work_per_ref_s"], p["change"]["metrics"]
                 ["work_per_ref_s"]) for p in record["pairs"]] == [
            (100.0, 120.0), (104.0, 125.0), (102.0, 118.0)]
        assert record["claim"]["wins"] == 3 and record["claim"]["holds"] is True
