"""NOR/NOT netlist parsing and direct evaluation.

Line-oriented text format:

    # comment
    .inputs a b cin
    .outputs sum cout
    t1 = NOR a b
    t2 = NOT t1

Identifiers are ``[A-Za-z0-9_]+``. Gates may appear in any order; the
parsed netlist is normalized to topological order and rejects cycles,
undefined operands, and redefinitions. Outputs may name gates or inputs
(the latter gives a pass-through).
"""

import re
from dataclasses import dataclass

_IDENT = re.compile(r"^[A-Za-z0-9_]+$")
_GATE_KINDS = {"NOR": 2, "NOT": 1}


class NetlistError(ValueError):
    """Malformed netlist text: syntax, undefined names, cycles."""


@dataclass(frozen=True)
class Gate:
    gate_id: str
    kind: str  # NOR | NOT
    operands: tuple[str, ...]


@dataclass(frozen=True)
class Netlist:
    """DAG of NOR2/NOT gates with named primary inputs and outputs."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]  # topologically ordered

    def evaluate(self, assignment: dict[str, int]) -> dict[str, int]:
        """Direct gate-by-gate evaluation; the golden reference for the
        compiled MAGIC programs."""
        check_assignment(self.name, self.inputs, assignment)
        values = {name: assignment[name] & 1 for name in self.inputs}
        for gate in self.gates:
            ins = [values[o] for o in gate.operands]
            values[gate.gate_id] = 0 if any(ins) else 1
        return {name: values[name] for name in self.outputs}

    def fanout(self, name: str) -> int:
        uses = sum(name in g.operands for g in self.gates)
        uses += sum(name == out for out in self.outputs)
        return uses


def check_assignment(name: str, inputs, assignment: dict[str, int]) -> None:
    """Reject an assignment to a function ``name`` with primary ``inputs``
    that names something else or leaves an input out. The gate-level
    evaluation and the machine execution of a schedule share this rule."""
    known = set(inputs)
    for key in assignment:
        if key not in known:
            raise NetlistError(f"{name} has no input {key!r}")
    for key in inputs:
        if key not in assignment:
            raise NetlistError(f"missing value for input {key!r}")


def _check_ident(tok: str, lineno: int) -> str:
    if not _IDENT.match(tok):
        raise NetlistError(f"line {lineno}: bad identifier {tok!r}")
    return tok


def parse_netlist(text: str, name: str = "netlist") -> Netlist:
    # ordered sets: a dict keeps the file's order and tests a name in O(1)
    inputs: dict[str, None] = {}
    outputs: dict[str, None] = {}
    raw_gates: dict[str, tuple[int, Gate]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == ".inputs":
            for tok in toks[1:]:
                _check_ident(tok, lineno)
                if tok in inputs:
                    raise NetlistError(f"line {lineno}: duplicate input {tok!r}")
                if tok in raw_gates:  # a gate defined it on an earlier line
                    raise NetlistError(f"line {lineno}: {tok!r} defined twice")
                inputs[tok] = None
        elif toks[0] == ".outputs":
            for tok in toks[1:]:
                _check_ident(tok, lineno)
                if tok in outputs:
                    raise NetlistError(f"line {lineno}: duplicate output {tok!r}")
                outputs[tok] = None
        elif len(toks) >= 2 and toks[1] == "=":
            gate_id = _check_ident(toks[0], lineno)
            if len(toks) < 3:
                raise NetlistError(f"line {lineno}: missing gate kind")
            kind = toks[2]
            if kind not in _GATE_KINDS:
                raise NetlistError(f"line {lineno}: unsupported gate kind {kind!r}")
            operands = tuple(_check_ident(t, lineno) for t in toks[3:])
            if len(operands) != _GATE_KINDS[kind]:
                raise NetlistError(
                    f"line {lineno}: {kind} takes {_GATE_KINDS[kind]} operand(s), "
                    f"got {len(operands)}")
            for k, operand in enumerate(operands):
                if operand in operands[:k]:
                    raise NetlistError(
                        f"line {lineno}: gate {gate_id!r} names operand {operand!r} twice")
            if gate_id in raw_gates or gate_id in inputs:
                raise NetlistError(f"line {lineno}: {gate_id!r} defined twice")
            raw_gates[gate_id] = (lineno, Gate(gate_id, kind, operands))
        else:
            raise NetlistError(f"line {lineno}: cannot parse {line!r}")

    defined = set(inputs) | set(raw_gates)
    for lineno, gate in raw_gates.values():
        for operand in gate.operands:
            if operand not in defined:
                raise NetlistError(
                    f"line {lineno}: undefined operand {operand!r}")
    for out in outputs:
        if out not in defined:
            raise NetlistError(f"undefined output {out!r}")

    # Kahn topological sort computing each gate's depth (gates on its longest
    # path from an input); leftover gates mean a cycle. Ordering by
    # (depth, file position) lists the gates wave by wave, in file order.
    waiting = dict.fromkeys(raw_gates, 0)
    users: dict[str, list[str]] = {}
    for gid, (_, gate) in raw_gates.items():
        for op in gate.operands:
            if op in raw_gates:
                waiting[gid] += 1
                users.setdefault(op, []).append(gid)
    depth = dict.fromkeys(raw_gates, 0)
    resolved = [gid for gid, count in waiting.items() if count == 0]
    for gid in resolved:  # grows while it is walked
        for user in users.get(gid, ()):
            depth[user] = max(depth[user], depth[gid] + 1)
            waiting[user] -= 1
            if waiting[user] == 0:
                resolved.append(user)
    if len(resolved) < len(raw_gates):
        cyclic = ", ".join(sorted(set(raw_gates).difference(resolved)))
        raise NetlistError(f"cyclic dependency among gates: {cyclic}")
    ordered = sorted(raw_gates, key=depth.__getitem__)

    return Netlist(name, tuple(inputs), tuple(outputs),
                   tuple(raw_gates[gid][1] for gid in ordered))


def load_netlist(path) -> Netlist:
    from pathlib import Path

    p = Path(path)
    try:
        return parse_netlist(p.read_text(), name=p.stem)
    except NetlistError as exc:
        raise NetlistError(f"{p}: {exc}") from None


BUNDLED = ("passthrough", "not_chain", "mux2", "full_adder",
           "ripple_adder4", "decoder3to8")


def bundled_dir():
    """Directory holding the bundled benchmark netlists."""
    from importlib.resources import files

    return files("xbarecc") / "netlists"


def load_bundled(name: str) -> Netlist:
    if name not in BUNDLED:
        raise NetlistError(f"no bundled netlist {name!r}; have {BUNDLED}")
    return parse_netlist((bundled_dir() / f"{name}.nl").read_text(), name=name)
