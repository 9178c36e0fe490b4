"""Command-line front end: schedule, simulate, inject, reliability, area.

All commands are deterministic given the same config and seed; reports
carry no timestamps, so repeated runs are byte-identical. Exit codes:
0 success, 1 usage error, 2 input error, 3 internal invariant violation.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .checkmem import Machine, TimingModel, device_counts, lane_footprint
from .engine import MicroOpError, check_bounds
from .events import Event
from .geometry import Geometry, GeometryError, check_block_size
from .netlist import NetlistError, load_netlist
from .reliability import (
    MIN_BLOCK_TRIALS,
    CampaignScope,
    FaultCampaign,
    ReliabilityParams,
    block_failure_probability,
    injection_campaign,
    monte_carlo_block_failure,
    p_bit,
    sweep,
    sweep_points,
    sweep_to_csv,
)
from .scheduler import (
    PROGRAM_ROW,
    Action,
    ActionKind,
    EccSchedule,
    RowCapacityError,
    execute_schedule,
    geometric_mean_ratio,
    insert_ecc,
    map_to_row,
    report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Upper bounds on user-sized allocations, checked before anything is built
MAX_TRIALS = 1_000_000  # inject --trials; block scope draws one int64 per trial
MAX_SWEEP_POINTS = 10_000  # reliability grid size
MAX_PC_PAIRS = 1_024  # -k/pc_pairs; every critical op and check scans all pairs


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Geometry, machine sizing, and timing knobs shared by all commands."""

    n: int = 1020
    block_size: int = 15
    pc_pairs: int = 3
    seed: int = 0
    timing: TimingModel = TimingModel()

    def geometry(self) -> Geometry:
        return Geometry(self.n, self.block_size)


# config keys: the RunConfig fields, with each TimingModel field in place of timing
_TIMING_KEYS = {f.name for f in fields(TimingModel)}
_CONFIG_KEYS = {f.name for f in fields(RunConfig) if f.name != "timing"} | _TIMING_KEYS


def load_config(path: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not val:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise InputError(f"{path}:{lineno}: config key {key!r} is set twice")
        try:
            values[key] = int(val)
        except ValueError:
            raise InputError(f"{path}:{lineno}: {key} needs an integer, got {val!r}")
    timing = {key: values.pop(key) for key in _TIMING_KEYS & values.keys()}
    try:
        cfg = RunConfig(timing=TimingModel(**timing), **values)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not 1 <= cfg.pc_pairs <= MAX_PC_PAIRS or cfg.seed < 0:
        raise InputError(f"{path}: need 1 <= pc_pairs <= {MAX_PC_PAIRS} and "
                         f"seed >= 0, got {cfg.pc_pairs} and {cfg.seed}")
    return cfg


def resolve_config(args) -> RunConfig:
    k = getattr(args, "pc_pairs", None)
    if k is not None and not 1 <= k <= MAX_PC_PAIRS:
        raise UsageError(f"-k/--pc-pairs must be in [1, {MAX_PC_PAIRS}], got {k}")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for key in ("n", "block_size", "pc_pairs", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return replace(cfg, **overrides) if overrides else cfg


# ----------------------------------------------------------------------
# schedule files

SCHEDULE_MAGIC = "# xbarecc schedule v1"


def write_schedule_file(path: Path, schedule: EccSchedule) -> None:
    meta = [
        SCHEDULE_MAGIC,
        f"# meta netlist={schedule.name}",
        f"# meta n={schedule.geom.n} m={schedule.geom.m} pc_pairs={schedule.pc_pairs}",
        "# meta timing=" + ",".join(
            f"{f.name}:{getattr(schedule.timing, f.name)}"
            for f in fields(TimingModel)),
        "# meta inputs=" + ",".join(
            f"{name}:{col}" for name, col in schedule.input_columns.items()),
        "# meta outputs=" + ",".join(
            f"{name}:{col}" for name, col in schedule.output_columns.items()),
        f"# meta baseline_cycles={schedule.baseline_cycles} "
        f"total_cycles={schedule.total_cycles}",
    ]
    lines = meta + [ev.to_line() for ev in schedule.events]
    path.write_text("\n".join(lines) + "\n")


def _parse_columns(text: str, n: int, kind: str) -> dict[str, int]:
    cols = {}
    if not text:
        return cols
    for part in text.split(","):
        name, _, col = part.partition(":")
        if name in cols:
            raise ValueError(f"{kind} {name!r} is listed twice")
        cols[name] = int(col)
        if not 0 <= cols[name] < n:
            raise ValueError(f"column of {name!r} is {col}, outside [0, {n})")
    return cols


def read_schedule_file(path: Path) -> EccSchedule:
    """The schedule a ``.events`` file was written from. Its metadata is read
    first, then each record, into the fields it was logged with
    (:meth:`Event.from_line`): a record that does not render back to exactly
    its line, or an op record outside the crossbar, is an input error."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SCHEDULE_MAGIC:
        raise InputError(f"{path}: not a schedule file (missing header)")
    meta: dict[str, str] = {}
    records: list[tuple[int, str]] = []

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("# meta "):
            if line.startswith("# meta netlist="):
                pairs = [("netlist", line[len("# meta netlist="):])]  # may hold spaces
            else:
                pairs = [tok.partition("=")[::2] for tok in line[len("# meta "):].split()]
            for key, val in pairs:
                if key in meta:
                    raise InputError(f"{path}:{lineno}: meta key {key!r} is set twice")
                meta[key] = val
        elif not line.startswith("#"):
            records.append((lineno, line))
    try:
        geom = Geometry(int(meta["n"]), int(meta["m"]))
        timing_vals: dict[str, str] = {}
        for key, _, val in (kv.partition(":") for kv in meta["timing"].split(",")):
            if key in timing_vals:
                raise ValueError(f"timing key {key!r} is set twice")
            timing_vals[key] = val
        if timing_vals.keys() != _TIMING_KEYS:
            raise ValueError(f"timing keys are {sorted(timing_vals)}, not {sorted(_TIMING_KEYS)}")
        timing = TimingModel(**{k: int(v) for k, v in timing_vals.items()})
        pc_pairs = int(meta["pc_pairs"])
        if not 1 <= pc_pairs <= MAX_PC_PAIRS:
            raise ValueError(f"pc_pairs must be in [1, {MAX_PC_PAIRS}], got {pc_pairs}")
        # an output may share an input's column (a pass-through); inputs may not
        input_columns = _parse_columns(meta.get("inputs", ""), geom.n, "input")
        if len(set(input_columns.values())) < len(input_columns):
            raise ValueError(f"two inputs share a column in {meta['inputs']!r}")
        output_columns = _parse_columns(meta.get("outputs", ""), geom.n, "output")
        baseline_cycles = int(meta.get("baseline_cycles", "0"))
        total_cycles = int(meta.get("total_cycles", "0"))
    except (KeyError, ValueError, GeometryError) as exc:
        raise InputError(f"{path}: bad or incomplete schedule metadata: {exc}")

    actions: list[Action] = []
    events: list[Event] = []
    written = None  # the footprint and line of the last critical op
    for lineno, line in records:
        try:  # MicroOpError is a ValueError
            ev = Event.from_line(line, written)
            events.append(ev)
            if ev.action == "check_row":
                index, orientation = ev.fields
                actions.append(Action(ActionKind.CHECK_ROW, index=index,
                                      orientation=orientation))
            elif ev.action == "block_reset":
                actions.append(Action(ActionKind.BLOCK_RESET, block=ev.fields))
            elif ev.action == "op" and len(ev.fields) == 2:  # not a block reset's Init
                op, critical = ev.fields
                check_bounds(op, geom.n)
                actions.append(Action(ActionKind.OP, op, critical))
                if critical:
                    written = (lane_footprint(geom, op.orientation, op.lane_mask),
                               op.output_line)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}")
    return EccSchedule(
        name=meta.get("netlist", path.stem),
        geom=geom,
        timing=timing,
        pc_pairs=pc_pairs,
        input_columns=input_columns,
        output_columns=output_columns,
        actions=tuple(actions),
        events=tuple(events),
        baseline_cycles=baseline_cycles,
        total_cycles=total_cycles,
    )


def stats_lines(name: str, stats) -> list[str]:
    return [
        f"netlist={name}",
        f"baseline_cycles={stats.baseline}",
        f"proposed_cycles={stats.proposed}",
        f"overhead_percent={stats.overhead_percent:.4f}",
        f"min_pc_pairs={stats.min_pc_pairs}",
        f"stall_cycles={stats.stall_cycles}",
        f"input_check_cycles={stats.input_check_cycles}",
        f"critical_ops={stats.critical_ops}",
        f"init_cycles={stats.init_cycles}",
    ]


# ----------------------------------------------------------------------
# commands

def cmd_schedule(args) -> int:
    cfg = resolve_config(args)
    src = Path(args.netlist)
    out_dir = Path(args.out_dir) if args.out_dir else (
        src if src.is_dir() else src.parent)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = sorted(src.glob("*.nl")) if src.is_dir() else [src]
    if not paths:
        raise InputError(f"no .nl files under {src}")
    geom, tm = cfg.geometry(), cfg.timing
    all_stats = []
    for path in paths:
        nl = load_netlist(path)
        rp = map_to_row(nl, geom)
        schedule = insert_ecc(rp, geom, tm, cfg.pc_pairs)
        stats = report(schedule)
        all_stats.append((nl.name, stats))
        write_schedule_file(out_dir / f"{nl.name}.events", schedule)
        (out_dir / f"{nl.name}.stats").write_text(
            "\n".join(stats_lines(nl.name, stats)) + "\n")
        print(f"{nl.name}: baseline={stats.baseline} proposed={stats.proposed} "
              f"overhead={stats.overhead_percent:.2f}% min_pc_pairs={stats.min_pc_pairs}")
    if src.is_dir():
        gmean = geometric_mean_ratio([s for _, s in all_stats])
        summary = [" ".join(stats_lines(name, s)) for name, s in all_stats]
        summary.append(f"geomean_overhead_percent={100.0 * (gmean - 1.0):.4f}")
        (out_dir / "corpus_summary.txt").write_text("\n".join(summary) + "\n")
        print(f"geomean overhead: {100.0 * (gmean - 1.0):.2f}% "
              f"({len(all_stats)} circuits)")
    return EXIT_OK


def _parse_assignment(text: str) -> dict[str, int]:
    assignment = {}
    if not text:
        return assignment
    for part in text.split(","):
        name, sep, val = part.partition("=")
        if not sep or val not in ("0", "1"):
            raise UsageError(f"bad input assignment {part!r} (want name=0|1)")
        name = name.strip()
        if name in assignment:
            raise UsageError(f"input {name!r} assigned more than once")
        assignment[name] = int(val)
    return assignment


def _parse_flips(texts: list[str], geom: Geometry) -> tuple[tuple[int, int], ...]:
    flips: dict[tuple[int, int], None] = {}  # an ordered set
    for text in texts:
        try:
            row, col = (int(x) for x in text.split(","))
        except ValueError:
            raise UsageError(f"bad flip {text!r} (want row,col)")
        try:
            geom.check_cell(row, col)
        except GeometryError as exc:
            raise UsageError(str(exc))
        if (row, col) in flips:  # a second flip would undo the first
            raise UsageError(f"cell {row},{col} flipped more than once")
        flips[row, col] = None
    return tuple(flips)


def cmd_simulate(args) -> int:
    schedule = read_schedule_file(Path(args.schedule))
    assignment = _parse_assignment(args.inputs or "")
    flips = _parse_flips(args.flip or [], schedule.geom)
    run = execute_schedule(schedule, assignment, flips)

    lines = [f"netlist={schedule.name}"]
    lines += [f"output.{name}={bit}" for name, bit in run.outputs.items()]
    lines.append(f"scheduled_cycles={schedule.total_cycles}")
    lines.append(f"actual_cycles={run.total_cycles}")
    lines.append(f"corrected={run.corrected}")
    lines.append(f"uncorrectable={run.uncorrectable}")
    m = schedule.geom.m
    in_blocks = {c // m for c in schedule.input_columns.values()}
    out_blocks = {c // m for c in schedule.output_columns.values()}
    br = PROGRAM_ROW // m
    for bc in range(schedule.geom.blocks_per_side):
        role = ("input" if bc in in_blocks else
                "output" if bc in out_blocks else "scratch")
        status = "consistent" if run.machine.block_consistent(br, bc) else "uncovered"
        lines.append(f"block.{br}.{bc}={role}:{status}")
    text = "\n".join(lines) + "\n"
    if args.report:
        Path(args.report).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_inject(args) -> int:
    cfg = resolve_config(args)
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    min_trials = MIN_BLOCK_TRIALS if args.scope == CampaignScope.BLOCK else 1
    if args.trials < min_trials:
        raise UsageError(f"--trials must be at least {min_trials} with "
                         f"--scope {args.scope}, got {args.trials}")
    if not 0 <= args.pbit <= 1:
        raise UsageError(f"--pbit must be in [0, 1], got {args.pbit}")
    if args.scope == CampaignScope.BLOCK:
        check_block_size(cfg.block_size)
        est = monte_carlo_block_failure(args.pbit, cfg.block_size, args.trials,
                                        cfg.seed)
        closed = block_failure_probability(args.pbit, cfg.block_size)
        lines = [
            f"scope=block m={cfg.block_size} p_bit={args.pbit:.10g} "
            f"trials={est.trials} seed={cfg.seed}",
            f"estimate={est.estimate:.10g}",
            f"ci95=[{est.ci_low:.10g},{est.ci_high:.10g}]",
            f"closed_form={closed:.10g}",
            f"closed_form_in_ci={'yes' if est.contains(closed) else 'no'}",
        ]
    else:
        geom = cfg.geometry()
        campaign = FaultCampaign(seed=cfg.seed, trials=args.trials, p_bit=args.pbit)
        factory = lambda: Machine.blank(geom, timing=cfg.timing,
                                        pc_pairs=cfg.pc_pairs)
        rep = injection_campaign(factory, campaign)
        closed = block_failure_probability(args.pbit, geom.m)
        lines = [
            f"scope=machine n={geom.n} m={geom.m} p_bit={args.pbit:.10g} "
            f"trials={rep.trials} seed={cfg.seed}",
            f"flips_injected={rep.flips_injected}",
            f"corrected={rep.corrected}",
            f"uncorrectable={rep.uncorrectable}",
            f"miscorrected={rep.miscorrected}",
            f"silent={rep.silent}",
            f"blocks_observed={rep.blocks_observed}",
            f"blocks_failed={rep.blocks_failed}",
            f"failed_block_frequency={rep.failed_block_frequency:.10g}",
            f"closed_form_block_failure={closed:.10g}",
        ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_reliability(args) -> int:
    cfg = resolve_config(args)
    for flag in ("lambda_min", "lambda_max", "points_per_decade", "t_hours"):
        if not math.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite")
    for flag in ("points_per_decade", "t_hours", "capacity_bits"):
        if getattr(args, flag) <= 0:
            raise UsageError(f"--{flag.replace('_', '-')} must be positive, "
                             f"got {getattr(args, flag)}")
    if args.capacity_bits > sys.float_info.max:  # the model computes in floats
        raise UsageError(f"--capacity-bits must be at most {sys.float_info.max:.6g}")
    if args.lambda_min <= 0 or args.lambda_min >= args.lambda_max:
        raise UsageError(
            f"need 0 < lambda-min < lambda-max, got {args.lambda_min} "
            f"and {args.lambda_max}")
    if p_bit(args.lambda_min, args.t_hours) == 0.0:
        raise UsageError(f"--lambda-min {args.lambda_min} and --t-hours {args.t_hours} "
                         "give a flip probability that underflows to 0; raise either")
    # bounded before sweep_points rounds it: a huge grid overflows to inf,
    # which round() rejects
    span = (math.log10(args.lambda_max) - math.log10(args.lambda_min)) * args.points_per_decade
    points = (sweep_points(args.lambda_min, args.lambda_max, args.points_per_decade)
              if span < MAX_SWEEP_POINTS else span + 1)
    if points > MAX_SWEEP_POINTS:
        raise UsageError(
            f"grid of {points:.10g} points exceeds {MAX_SWEEP_POINTS}; "
            f"lower --points-per-decade or narrow the lambda range")
    params = ReliabilityParams(
        lambda_fit=args.lambda_min,
        t_hours=args.t_hours,
        block_size=cfg.block_size,
        capacity_bits=args.capacity_bits,
    )
    rows = sweep(args.lambda_min, args.lambda_max, args.points_per_decade, params)
    csv = sweep_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_area(args) -> int:
    cfg = resolve_config(args)
    counts = device_counts(cfg.n, cfg.block_size, cfg.pc_pairs)
    name_w = max(len(r.unit) for r in counts.rows) + 2
    print(f"{'Unit':<{name_w}}{'Memristors':>12}{'Transistors':>13}  Expression")
    for row in counts.rows:
        print(f"{row.unit:<{name_w}}{row.memristors:>12}{row.transistors:>13}"
              f"  {row.expression}")
    print(f"{'Total':<{name_w}}{counts.total_memristors:>12}"
          f"{counts.total_transistors:>13}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems are exit 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("-m", "--block-size", type=int, default=None, dest="block_size",
                   help="block side length (odd)")


def _add_crossbar(p: argparse.ArgumentParser) -> None:
    """The machine's sizing, for the commands that build or count crossbars."""
    p.add_argument("-n", type=int, default=None, help="crossbar side length, a multiple of m")
    p.add_argument("-k", "--pc-pairs", type=int, default=None, dest="pc_pairs",
                   help="processing-crossbar pairs")


def build_parser() -> _Parser:
    parser = _Parser(prog="xbarecc",
                     description="MAGIC crossbar PIM with diagonal-parity ECC: "
                                 "compiler, timed simulator, fault injection, "
                                 "and reliability analytics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="compile netlists and insert ECC ops")
    p.add_argument("netlist", help=".nl file or directory of .nl files")
    p.add_argument("--out-dir", help="where to write .events/.stats files")
    _add_common(p)
    _add_crossbar(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="run a scheduled event log on the machine")
    p.add_argument("schedule", help=".events file from the schedule command")
    p.add_argument("--inputs", help="comma list name=bit, e.g. a=1,b=0")
    p.add_argument("--flip", action="append",
                   help="inject a data flip at row,col before execution")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", help="fault-injection campaign")
    p.add_argument("--scope", choices=[CampaignScope.BLOCK, CampaignScope.MACHINE],
                   default=CampaignScope.BLOCK)
    p.add_argument("--pbit", type=float, required=True,
                   help="per-cell flip probability per epoch")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--out", help="write the report here instead of stdout")
    _add_common(p)
    _add_crossbar(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("reliability", help="MTTF sensitivity sweep (CSV)")
    p.add_argument("--lambda-min", type=float, default=1e-5)
    p.add_argument("--lambda-max", type=float, default=1e3)
    p.add_argument("--points-per-decade", type=float, default=3.5)
    p.add_argument("--t-hours", type=float, default=24.0)
    p.add_argument("--capacity-bits", type=int, default=8_000_000_000)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("area", help="device counts per unit")
    _add_common(p)
    _add_crossbar(p)
    p.set_defaults(func=cmd_area)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"xbarecc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # OverflowError: a replay past cycle 2**31, which Machine's readiness rejects
    except (InputError, NetlistError, RowCapacityError, GeometryError,
            MicroOpError, OSError, UnicodeDecodeError, OverflowError) as exc:
        print(f"xbarecc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, ValueError) as exc:
        print(f"xbarecc: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
