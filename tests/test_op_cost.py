"""Smoke test of ``tools/op_cost.py`` on a small geometry."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "op_cost", Path(__file__).resolve().parent.parent / "tools" / "op_cost.py")
op_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_cost)


def test_every_case_is_timed(capsys):
    assert op_cost.main(["--n", "30", "--m", "3", "--ops", "40", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("op_cost: n=30 m=3, best of 2 x 40 ops, microseconds per op "
                        "(per block for the checks, per trial for the campaign)")
    names = ["critical_op 1 lane", "critical_op all lanes", "noncritical_op 1 lane",
             "block_ecc_reset", "MicroOp", "Action", "Event", "to_line op all lanes",
             "to_line load_check all lanes", "to_line reset Init", "compute_syndrome",
             "check_block_row", "check_block_row blank", "check run", "full_memory_check",
             "full_memory_check blank", "full_memory_check after 1-lane ops",
             "full_memory_check dirty", "full_memory_check every block dirty",
             "events after sweep", "injection_campaign trial",
             "injection_campaign trial every cell flipped"]
    assert [line[:44].strip() for line in lines[1:]] == names
    assert all(float(line[44:]) > 0 for line in lines[1:])


def test_the_check_run_corrects_one_flip_per_block_row():
    from xbarecc.checkmem import run_stats

    name, setup, run = next(case for case in op_cost.cases(45, 5) if case[0] == "check run")
    machine = setup()
    assert run(machine, 18) == 2 * 9 * 9  # two runs of the 9 lines, 9 blocks each
    assert run_stats(machine.events).corrected == 2 * 9
    assert run_stats(machine.events).uncorrectable == 0


@pytest.mark.parametrize("argv", [
    ["--ops", "0"], ["--repeat", "0"], ["--n", "x"],
    ["--n", "31", "--m", "3"],  # m does not divide n
    ["--n", "32", "--m", "4"],  # even block size
    ["--m", "4"],
])
def test_bad_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        op_cost.parse_args(argv)
    assert exc.value.code == 2
