"""Golden digests of the CLI's user-visible outputs.

``golden.json`` holds the SHA-256 of every file ``schedule`` writes for
the bundled corpus at n=30/m=3 and at n=1020/m=15 (k=3), of the default
``reliability`` CSV and of the default ``area`` table. Every benchmark run
recomputes them and counts each mismatch as a failed operation.

Refresh them only on purpose, as a change of the benchmark:

    python3 perfbench/golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"


def compute(workdir: Path) -> dict:
    from xbarecc import cli, netlist

    from workloads import digest, quiet_main

    result = {}
    for n, m in ((30, 3), (1020, 15)):
        out = workdir / f"golden-{n}-{m}"
        code = quiet_main(["schedule", str(netlist.bundled_dir()), "--out-dir", str(out),
                           "-n", str(n), "-m", str(m), "-k", "3"])
        if code != 0:
            raise RuntimeError(f"schedule at {n}/{m} exited {code}")
        result[f"schedule {n}/{m}"] = {p.name: digest(p) for p in sorted(out.iterdir())}
    csv = workdir / "reliability.csv"
    if quiet_main(["reliability", "--out", str(csv)]) != 0:
        raise RuntimeError("reliability failed")
    result["reliability"] = digest(csv)
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        if cli.main(["area"]) != 0:
            raise RuntimeError("area failed")
    area = workdir / "area.txt"
    area.write_text(table.getvalue())
    result["area"] = digest(area)
    return result


def load() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


def compare(expected: dict, got: dict) -> tuple[int, list[str]]:
    """Number of digests compared, and a line per mismatch."""
    compared, mismatches = 0, []
    for key, want in expected.items():
        have = got.get(key)
        pairs = want.items() if isinstance(want, dict) else [(None, want)]
        for name, digest in pairs:
            compared += 1
            value = have.get(name) if isinstance(have, dict) else have
            if value != digest:
                mismatches.append(f"golden {key} {name or ''} differs".rstrip())
    return compared, mismatches


if __name__ == "__main__":
    import tempfile

    from run import import_program

    import_program()
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/golden.py --write")
    with tempfile.TemporaryDirectory(dir=GOLDEN_FILE.parent) as tmp:
        GOLDEN_FILE.write_text(json.dumps(compute(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
