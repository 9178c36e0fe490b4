"""The benchmark's workloads: seeded inputs, one timed item, output checks.

Each workload object is built from the benchmark seed and a scratch
directory. ``item()`` is the timed unit of work; it returns whatever the
check needs, and ``check_item()`` (untimed) returns the failures it found.
``final_checks()`` validates, once per run, the reference the per-item
checks compare against. ``sim()`` gives the simulated statistics, which
depend on the inputs only.

All three workloads run at the default geometry n=1020, m=15, k=3 with
the default ``TimingModel``.
"""

import contextlib
import hashlib
import io
import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from xbarecc import checkmem, cli, netlist, reliability, scheduler
from xbarecc.engine import CrossbarState
from xbarecc.geometry import Geometry
from xbarecc.scheduler import ActionKind

GEOM = Geometry(1020, 15)
PC_PAIRS = 3
ADDER_BITS = (8, 16, 32, 64)
GATE_BEARING = ("not_chain", "mux2", "full_adder", "ripple_adder4", "decoder3to8")
CAMPAIGN_PBIT = 1e-4
CAMPAIGN_TRIALS = 8  # trials per timed CLI call
ADDER_CHECKS = 4  # seeded assignments executed per generated adder


def quiet_main(argv: list[str]) -> int:
    """``xbarecc.cli.main`` with its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def workload_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per workload, derived from the benchmark seed."""
    return np.random.default_rng([seed, int.from_bytes(name.encode(), "little")])


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def overhead_pct(ratios: list[float]) -> float:
    """Geometric-mean overhead, in per cent, of cycles-with-ECC ratios."""
    return 100.0 * (statistics.geometric_mean(ratios) - 1.0)


# ----------------------------------------------------------------------
# compile: the schedule command over the bundled corpus plus seeded adders

def ripple_adder_text(bits: int, rng: np.random.Generator) -> str:
    """An n-bit ripple-carry adder built from the gate cell of full_adder.nl.

    Bit i maps the cell's a, b, cin, sum, cout to a<i>, b<i>, c<i>, s<i>,
    c<i+1> (carry-in c0 is ``cin``, the last carry-out is ``cout``); every
    internal name gets the suffix ``_<i>``. Gate lines are shuffled by
    ``rng``; the parser accepts definitions in any order.
    """
    cell = netlist.load_bundled("full_adder")
    lines = []
    for i in range(bits):
        rename = {"a": f"a{i}", "b": f"b{i}", "sum": f"s{i}",
                  "cin": "cin" if i == 0 else f"c{i}",
                  "cout": "cout" if i == bits - 1 else f"c{i + 1}"}
        for gate in cell.gates:
            name = lambda x: rename.get(x, f"{x}_{i}")
            lines.append(f"{name(gate.gate_id)} = {gate.kind} "
                         + " ".join(name(op) for op in gate.operands))
    order = rng.permutation(len(lines))
    header = [f"# {bits}-bit ripple-carry adder: {{s,cout}} = a + b + cin",
              ".inputs " + " ".join([f"a{i}" for i in range(bits)]
                                    + [f"b{i}" for i in range(bits)] + ["cin"]),
              ".outputs " + " ".join([f"s{i}" for i in range(bits)] + ["cout"])]
    return "\n".join(header + [lines[k] for k in order]) + "\n"


def adder_assignment(bits: int, a: int, b: int, cin: int) -> dict[str, int]:
    bits_of = lambda v, p: {f"{p}{i}": (v >> i) & 1 for i in range(bits)}
    return {**bits_of(a, "a"), **bits_of(b, "b"), "cin": cin}


def adder_sum(bits: int, outputs: dict[str, int]) -> int:
    return sum(outputs[f"s{i}"] << i for i in range(bits)) + (outputs["cout"] << bits)


class Compile:
    unit = "gates"

    def __init__(self, seed: int, workdir: Path):
        rng = workload_rng(seed, "compile")
        self.corpus = workdir / "corpus"
        self.out = workdir / "out"
        self.corpus.mkdir(parents=True)
        for name in netlist.BUNDLED:
            shutil.copyfile(netlist.bundled_dir() / f"{name}.nl",
                            self.corpus / f"{name}.nl")
        for bits in ADDER_BITS:
            (self.corpus / f"adder{bits}.nl").write_text(ripple_adder_text(bits, rng))
        self.work = sum(len(netlist.load_netlist(p).gates)
                        for p in self.corpus.glob("*.nl"))
        self.assignments = {
            bits: [(2**bits - 1, 1, 1)] + [
                (int.from_bytes(rng.bytes(8), "little") % 2**bits,
                 int.from_bytes(rng.bytes(8), "little") % 2**bits,
                 int(rng.integers(2))) for _ in range(ADDER_CHECKS - 1)]
            for bits in ADDER_BITS}
        self.reference: dict[str, str] | None = None

    def item(self):
        return quiet_main(["schedule", str(self.corpus), "--out-dir", str(self.out)])

    def outputs(self) -> dict[str, str]:
        return {p.name: digest(p) for p in sorted(self.out.iterdir())}

    def check_item(self, code) -> list[str]:
        if code != 0:
            return [f"schedule exited {code}"]
        got = self.outputs()
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            return ["schedule output differs from the first pass"]
        return []

    def final_checks(self, golden: dict) -> list[str]:
        """The first pass's outputs: golden digests for the bundled corpus,
        and every adder schedule computing integer addition."""
        failures = []
        expected = golden["schedule 1020/15"]
        for name, want in expected.items():
            if name != "corpus_summary.txt" and self.reference.get(name) != want:
                failures.append(f"{name} differs from its golden digest")
        tm = checkmem.TimingModel()
        for bits in ADDER_BITS:
            nl = netlist.load_netlist(self.corpus / f"adder{bits}.nl")
            sched = scheduler.insert_ecc(scheduler.map_to_row(nl, GEOM), GEOM, tm, PC_PAIRS)
            check_file = self.out.parent / "check.events"
            cli.write_schedule_file(check_file, sched)
            if digest(check_file) != self.reference[f"adder{bits}.events"]:
                failures.append(f"adder{bits}: schedule differs from the CLI's")
            for a, b, cin in self.assignments[bits]:
                run = scheduler.execute_schedule(sched, adder_assignment(bits, a, b, cin))
                if adder_sum(bits, run.outputs) != a + b + cin:
                    failures.append(f"adder{bits}: {a}+{b}+{cin} computed wrong")
        return failures

    def sim(self) -> tuple[int, float]:
        cycles = 0
        for path in self.out.glob("*.stats"):
            stats = dict(line.split("=", 1) for line in path.read_text().split())
            cycles += int(stats["proposed_cycles"])
        summary = (self.out / "corpus_summary.txt").read_text().split()
        overhead = float(summary[-1].split("=", 1)[1])
        return cycles, overhead


# ----------------------------------------------------------------------
# campaign: machine-scope fault injection through the inject command

def campaign_oracle(seed: int, trials: int, p_bit: float, geom: Geometry):
    """Flips and failed blocks per the documented per-trial stream.

    Trial t draws its flip mask as ``default_rng((seed, t)).random((n, n))
    < p_bit``; a block fails when it holds two or more flips.
    """
    m, nb = geom.m, geom.blocks_per_side
    flips = failed = 0
    for trial in range(trials):
        mask = np.random.default_rng((seed, trial)).random((geom.n, geom.n)) < p_bit
        per_block = mask.reshape(nb, m, nb, m).sum(axis=(1, 3))
        flips += int(mask.sum())
        failed += int((per_block >= 2).sum())
    return flips, failed


def parse_inject_report(text: str) -> dict[str, str]:
    fields = {}
    for tok in text.split():
        key, sep, val = tok.partition("=")
        if sep:
            fields[key] = val
    return fields


class Campaign:
    unit = "trials"
    work = CAMPAIGN_TRIALS

    def __init__(self, seed: int, workdir: Path, geom: Geometry = GEOM):
        workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.geom = geom
        self.report = workdir / "inject.txt"
        self.flips, self.failed = campaign_oracle(seed, self.work, CAMPAIGN_PBIT, geom)

    def item(self):
        return quiet_main(["inject", "--scope", "machine", "--pbit", str(CAMPAIGN_PBIT),
                           "--trials", str(self.work), "--seed", str(self.seed),
                           "-n", str(self.geom.n), "-m", str(self.geom.m),
                           "--out", str(self.report)])

    def check_item(self, code) -> list[str]:
        if code != 0:
            return [f"inject exited {code}"]
        rep = parse_inject_report(self.report.read_text())
        nb = self.geom.blocks_per_side
        flips = int(rep["flips_injected"])
        outcomes = sum(int(rep[k]) for k in
                       ("corrected", "uncorrectable", "miscorrected", "silent"))
        problems = []
        if flips != self.flips:
            problems.append(f"flips_injected {flips} != oracle {self.flips}")
        if int(rep["blocks_failed"]) != self.failed:
            problems.append(f"blocks_failed {rep['blocks_failed']} != oracle {self.failed}")
        if int(rep["blocks_observed"]) != self.work * nb * nb:
            problems.append(f"blocks_observed {rep['blocks_observed']}")
        if outcomes != flips:
            problems.append(f"outcomes sum to {outcomes}, not {flips}")
        self.last = rep
        return problems

    def final_checks(self, golden: dict) -> list[str]:
        """Replay the campaign through the library; it must match the CLI."""
        machines = []

        def factory():
            machines.append(checkmem.Machine.blank(
                self.geom, timing=checkmem.TimingModel(), pc_pairs=PC_PAIRS))
            return machines[-1]

        rep = reliability.injection_campaign(factory, reliability.FaultCampaign(
            seed=self.seed, trials=self.work, p_bit=CAMPAIGN_PBIT))
        self.horizons = [m.horizon for m in machines]
        clean = factory()
        clean.full_memory_check()
        self.clean_horizon = clean.horizon
        return [f"library replay differs from the CLI in {k}"
                for k in ("flips_injected", "corrected", "uncorrectable",
                          "miscorrected", "silent", "blocks_failed")
                if int(self.last[k]) != getattr(rep, k)]

    def sim(self) -> tuple[int, float]:
        return sum(self.horizons), overhead_pct(
            [h / self.clean_horizon for h in self.horizons])


# ----------------------------------------------------------------------
# simd: row-parallel execution of compiled netlists under soft errors

def widen(actions: tuple, geom: Geometry) -> tuple:
    """Run a single-row action list on every row of the crossbar.

    Every op's lane mask becomes all n rows; the input check and each
    output-block reset are repeated for every block row. Nothing else
    changes.
    """
    lanes = frozenset(range(geom.n))
    rows = range(geom.blocks_per_side)
    wide = []
    for action in actions:
        if action.kind is ActionKind.CHECK_ROW:
            wide.extend(replace(action, index=br) for br in rows)
        elif action.kind is ActionKind.BLOCK_RESET:
            wide.extend(replace(action, block=(br, action.block[1])) for br in rows)
        else:
            wide.append(replace(action, op=replace(action.op, lane_mask=lanes)))
    return tuple(wide)


@dataclass
class SimdCase:
    name: str
    program: scheduler.RowProgram
    actions: tuple
    state: CrossbarState
    flips: list[tuple[int, int]]
    expected: dict[str, np.ndarray]  # output name -> bit per row


def simd_case(name: str, rng: np.random.Generator, geom: Geometry = GEOM) -> SimdCase:
    nl = netlist.load_bundled(name)
    rp = scheduler.map_to_row(nl, geom)
    actions = widen(scheduler.build_actions(rp), geom)
    state = CrossbarState.zeros(geom)
    cols = list(rp.input_columns.values())
    state.cells[:, cols] = rng.integers(0, 2, size=(geom.n, len(cols)), dtype=np.uint8)
    m = geom.m
    in_width = len(rp.input_block_cols) * m
    flips = [(br * m + int(rng.integers(m)), int(rng.integers(in_width)))
             for br in range(geom.blocks_per_side)]
    expected = {out: np.empty(geom.n, dtype=np.uint8) for out in nl.outputs}
    for row in range(geom.n):
        values = nl.evaluate({k: int(state.cells[row, c])
                              for k, c in rp.input_columns.items()})
        for out, bit in values.items():
            expected[out][row] = bit
    return SimdCase(name, rp, actions, state, flips, expected)


class Simd:
    unit = "lane_evals"

    def __init__(self, seed: int, workdir: Path, geom: Geometry = GEOM,
                 names: tuple = GATE_BEARING):
        rng = workload_rng(seed, "simd")
        self.geom = geom
        self.cases = [simd_case(name, rng, geom) for name in names]
        self.work = geom.n * len(self.cases)

    def item(self):
        runs = []
        for case in self.cases:
            machine = checkmem.Machine(case.state, timing=checkmem.TimingModel(),
                                       pc_pairs=PC_PAIRS)
            for row, col in case.flips:
                machine.inject_data_flip(row, col)
            runs.append((machine, scheduler.run_actions(machine, case.actions)))
        return runs

    def check_item(self, runs) -> list[str]:
        problems = []
        nb = self.geom.blocks_per_side
        self.cycles = []
        for case, (machine, run) in zip(self.cases, runs):
            self.cycles.append((run.total_cycles, case.program.baseline_cycles))
            if run.corrected != nb or run.uncorrectable:
                problems.append(f"{case.name}: corrected {run.corrected}, "
                                f"uncorrectable {run.uncorrectable}")
            for out, col in case.program.output_columns.items():
                wrong = int((machine.state.cells[:, col] != case.expected[out]).sum())
                if wrong:
                    problems.append(f"{case.name}: {out} wrong in {wrong} rows")
            for bc in case.program.output_block_cols:
                bad = [br for br in range(nb) if not machine.block_consistent(br, bc)]
                if bad:
                    problems.append(f"{case.name}: block column {bc} inconsistent "
                                    f"in {len(bad)} block rows")
        return problems

    def final_checks(self, golden: dict) -> list[str]:
        return []

    def sim(self) -> tuple[int, float]:
        return (sum(total for total, _ in self.cycles),
                overhead_pct([total / base for total, base in self.cycles]))


WORKLOADS = {"compile": Compile, "campaign": Campaign, "simd": Simd}
