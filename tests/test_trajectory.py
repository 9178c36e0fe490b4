"""``tools/trajectory.py`` over synthetic ``tools/ab.py`` records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab, trajectory = load("ab"), load("trajectory")

SPEC = {"end_to_end": [{"name": "work_per_ref_s", "better": "higher", "bound": 0.25},
                       {"name": "setup_s", "better": "lower", "bound": 0.25}],
        "per_layer": []}


def record(workload: str, parent: float, change: float, pairs: int = 5,
           commits: tuple = ("a" * 40, "b" * 40), dirty: bool = False) -> dict:
    """An ab record whose change reads ``change`` against ``parent`` in
    every pair, ``setup_s`` equal, between the parent and change
    ``commits``; ``dirty`` marks the change side's files as differing."""
    def run(rate):
        return {"failed": 0, "metrics": {"work_per_ref_s": {"value": rate},
                                         "setup_s": {"value": 0.5}}}

    args = ab.parse_args(["p", "c", "--workload", workload, "--pairs", str(pairs)])
    trees = {"parent": {"commit": commits[0], "dirty": False},
             "change": {"commit": commits[1], "dirty": dirty}}
    return ab.build_record(args, SPEC, trees, {},
                           {"parent": [run(parent)] * pairs, "change": [run(change)] * pairs},
                           None)


def write(tmp_path, name, content) -> Path:
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def table(capsys, *argv) -> tuple[list[list[str]], list[str]]:
    """The rows that ``main`` prints, split, and its warnings."""
    assert trajectory.main([str(a) for a in argv]) == 0
    out, err = capsys.readouterr()
    header, *rows = out.splitlines()
    assert header.split() == ["record", "workload", "pairs", "parent", "change", "ratio",
                              "chained", "claim"]
    return [row.split() for row in rows], err.splitlines()


def test_ratios_chain_per_workload_in_record_order(tmp_path, capsys):
    c28, c30, c100 = "2" * 40, "3" * 40, "4" * 40
    paths = [write(tmp_path, "BENCH_30_campaign.json",
                   record("campaign", 40.0, 50.0, commits=(c28, c30))),
             write(tmp_path, "BENCH_4_simd.json", record("simd", 10.0, 10.5)),
             write(tmp_path, "BENCH_28_campaign.json",
                   record("campaign", 30.0, 36.0, commits=("1" * 40, c28))),
             write(tmp_path, "BENCH_100_campaign.json",
                   record("campaign", 50.0, 49.0, commits=(c30, c100)))]
    rows, warnings = table(capsys, *paths)
    assert rows == [
        ["BENCH_28_campaign.json", "campaign", "5", "30", "36", "1.200", "1.200", "HOLDS"],
        ["BENCH_30_campaign.json", "campaign", "5", "40", "50", "1.250", "1.500", "HOLDS"],
        ["BENCH_100_campaign.json", "campaign", "5", "50", "49", "0.980", "1.470", "no"],
        ["BENCH_4_simd.json", "simd", "5", "10", "10.5", "1.050", "1.050", "HOLDS"]]
    assert warnings == []  # every link is checked and holds


def test_a_broken_or_unnamed_link_is_a_warning_naming_the_record(tmp_path, capsys):
    paths = [write(tmp_path, "BENCH_28_campaign.json",
                   record("campaign", 30.0, 36.0, commits=("1" * 40, "2" * 40))),
             write(tmp_path, "BENCH_30_campaign.json",
                   record("campaign", 40.0, 50.0, commits=("9" * 40, "3" * 40), dirty=True))]
    rows, warnings = table(capsys, *paths)
    assert rows[1][:7] == ["BENCH_30_campaign.json", "campaign", "5", "40", "50",
                           "1.250", "1.500"]  # still chained
    assert warnings == [
        "trajectory: warning: BENCH_30_campaign.json: the change tree is not a commit",
        "trajectory: warning: BENCH_30_campaign.json: parent 999999999999 is not the "
        "change of BENCH_28_campaign.json"]


@pytest.mark.parametrize("content, why", [
    ("{", "not a tools/ab.py record"),
    ({"workload": "campaign"}, "not a tools/ab.py record"),
    ({**record("campaign", 1.0, 2.0), "metrics": []}, "no metric 'work_per_ref_s'"),
    ({**record("campaign", 1.0, 2.0), "pairs": []}, "at least one pair"),
    ({**record("campaign", 1.0, 2.0), "trees": {"parent": {}}}, "not a tools/ab.py record"),
    (record("campaign", 0.0, 2.0), "positive parent median"),
])
def test_a_malformed_record_is_an_error_naming_it(tmp_path, content, why):
    good = write(tmp_path, "BENCH_1_simd.json", record("simd", 1.0, 1.0))
    bad = write(tmp_path, "BENCH_2_campaign.json", content)
    with pytest.raises(SystemExit) as exc:
        trajectory.main([str(good), str(bad)])
    assert str(bad) in str(exc.value.code) and why in str(exc.value.code)


def test_a_missing_record_is_an_error(tmp_path):
    with pytest.raises(SystemExit, match="BENCH_9_simd.json"):
        trajectory.main([str(tmp_path / "BENCH_9_simd.json")])
