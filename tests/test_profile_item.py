"""Smoke test of ``tools/profile_item.py`` on the ``compile`` workload."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "profile_item", Path(__file__).resolve().parent.parent / "tools" / "profile_item.py")
profile_item = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_item)


def test_compile_item_profile_names_the_scheduler(capsys):
    assert profile_item.main(["--workload", "compile", "--seed", "3", "--items", "1",
                              "--sort", "cumulative"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("compile: 1 item(s), seed 3, sorted by cumulative\n")
    assert "function calls" in out
    assert "(insert_ecc)" in out and "(run_actions)" in out


@pytest.mark.parametrize("argv", [["--workload", "compile", "--items", "0"],
                                  ["--workload", "nope"]])
def test_bad_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        profile_item.parse_args(argv)
    assert exc.value.code == 2
