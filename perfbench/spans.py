"""Span tracing from outside the package: wrappers around public functions.

The traced run replaces each public function or method named in
``FUNCTIONS`` and ``METHODS`` with a wrapper that opens a span, and puts
the originals back afterwards. A function is re-bound in every
``xbarecc`` module that imported it by name, because callers look it up
in their own module. Spans are aggregated as they close, so memory stays
flat however many calls a run makes.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

import sys
import time

# (module, function) pairs; the span is named "module.function"
FUNCTIONS = (
    ("netlist", "parse_netlist"),
    ("scheduler", "map_to_row"),
    ("scheduler", "insert_ecc"),
    ("scheduler", "min_pc_pairs"),
    ("scheduler", "run_actions"),
    ("parity", "compute_syndrome"),
    ("parity", "encode_block"),
    ("parity", "decode_syndrome"),
    ("parity", "update_parity"),
    ("engine", "apply_op_inplace"),
    ("engine", "validate_op"),
    ("engine", "format_op"),
    ("geometry", "block_decompose"),
    ("geometry", "diags_of_cell"),
    ("reliability", "injection_campaign"),
    ("cli", "write_schedule_file"),
)

# (module, class, method, span name)
METHODS = (
    ("netlist", "Netlist", "fanout", "netlist.fanout"),
    ("checkmem", "Machine", "__init__", "checkmem.machine_init"),
    ("checkmem", "Machine", "check_block_row", "checkmem.check_block_row"),
    ("checkmem", "Machine", "critical_op", "checkmem.critical_op"),
    ("checkmem", "Machine", "noncritical_op", "checkmem.noncritical_op"),
    ("checkmem", "Machine", "block_ecc_reset", "checkmem.block_ecc_reset"),
    ("checkmem", "CheckMem", "parity", "checkmem.CheckMem.parity"),
)


class Tracer:
    """Aggregates spans by name: calls, total seconds and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._child_time: list[float] = []  # one entry per open span

    def begin(self) -> float:
        self._child_time.append(0.0)
        return self.clock()

    def end(self, name: str, start: float) -> None:
        duration = self.clock() - start
        children = self._child_time.pop()
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children
        if self._child_time:
            self._child_time[-1] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def _count_checks(tracer, result, args):
    reports = result[0]
    tracer.count("checkmem.blocks_checked", len(reports))
    tracer.count("checkmem.dirty_blocks",
                 sum(r.diagnosis.kind.value != "clean" for r in reports))


# counters taken at a span's boundary, from its result and arguments
COUNTERS = {
    "engine.format_op":
        lambda tracer, result, args: tracer.count("engine.format_op.bytes", len(result)),
    "checkmem.critical_op":
        lambda tracer, result, args: tracer.count("checkmem.critical_cells",
                                                  len(args[1].lane_mask)),
    "checkmem.check_block_row": _count_checks,
    "cli.write_schedule_file":
        lambda tracer, result, args: tracer.count("cli.events_bytes",
                                                  args[0].stat().st_size),
}


def _wrap(name, fn, tracer):
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        start = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name, start)
        if counter:
            counter(tracer, result, args)
        return result

    traced.__wrapped__ = fn
    return traced


class Instrumentation:
    """Installs the wrappers for one tracer; ``remove`` restores the package."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if (name == "xbarecc" or name.startswith("xbarecc."))
                   and mod is not None]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"xbarecc.{mod_name}"], fn_name)
            traced = _wrap(f"{mod_name}.{fn_name}", original, self.tracer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, traced)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"xbarecc.{mod_name}"], cls_name)
            self._set(cls, method, _wrap(span, vars(cls)[method], self.tracer))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self.tracer

    def __exit__(self, *exc):
        self.remove()
        return False


# Per-layer metrics of the traced run, each per timed item except the ratio.
# "<span>.self_s" and "<span>.calls" read a span; other names read a counter.
LAYER_METRICS = (
    ("netlist.parse_netlist.self_s", "s"),
    ("netlist.fanout.calls", "count"),
    ("scheduler.map_to_row.self_s", "s"),
    ("scheduler.insert_ecc.calls", "count"),
    ("scheduler.insert_ecc.self_s", "s"),
    ("scheduler.min_pc_pairs.self_s", "s"),
    ("scheduler.run_actions.self_s", "s"),
    ("checkmem.machine_init.calls", "count"),
    ("checkmem.machine_init.self_s", "s"),
    ("checkmem.check_block_row.calls", "count"),
    ("checkmem.check_block_row.self_s", "s"),
    ("checkmem.blocks_checked", "count"),
    ("checkmem.dirty_block_ratio", "ratio"),
    ("checkmem.critical_op.calls", "count"),
    ("checkmem.critical_op.self_s", "s"),
    ("checkmem.critical_cells", "count"),
    ("checkmem.noncritical_op.self_s", "s"),
    ("checkmem.block_ecc_reset.self_s", "s"),
    ("parity.compute_syndrome.calls", "count"),
    ("parity.compute_syndrome.self_s", "s"),
    ("parity.encode_block.self_s", "s"),
    ("parity.decode_syndrome.self_s", "s"),
    ("checkmem.CheckMem.parity.calls", "count"),
    ("parity.update_parity.calls", "count"),
    ("parity.update_parity.self_s", "s"),
    ("engine.apply_op_inplace.calls", "count"),
    ("engine.apply_op_inplace.self_s", "s"),
    ("engine.validate_op.self_s", "s"),
    ("engine.format_op.self_s", "s"),
    ("engine.format_op.bytes", "bytes"),
    ("geometry.block_decompose.calls", "count"),
    ("geometry.diags_of_cell.calls", "count"),
    ("reliability.injection_campaign.self_s", "s"),
    ("cli.write_schedule_file.self_s", "s"),
    ("cli.events_bytes", "bytes"),
)


def layer_metrics(tracer: Tracer, items: int) -> dict[str, dict]:
    """Every metric of ``LAYER_METRICS``, as ``{"value", "unit"}`` entries."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "checkmem.dirty_block_ratio":
            checked = tracer.counts.get("checkmem.blocks_checked", 0)
            value = tracer.counts.get("checkmem.dirty_blocks", 0) / checked if checked else 0.0
        elif name.endswith(".self_s"):
            value = tracer.self_s(name[:-len(".self_s")]) / items
        elif name.endswith(".calls"):
            value = tracer.calls(name[:-len(".calls")]) / items
        else:
            value = tracer.counts.get(name, 0) / items
        out[name] = {"value": value, "unit": unit}
    return out
