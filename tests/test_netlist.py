"""Netlist parsing, validation, and direct evaluation."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarecc.netlist import (
    BUNDLED,
    NetlistError,
    load_bundled,
    parse_netlist,
)

def ref_full_adder(a, b, cin):
    total = a + b + cin
    return {"sum": total & 1, "cout": total >> 1}


class TestParsing:
    def test_full_adder_round_trip(self):
        nl = load_bundled("full_adder")
        assert nl.inputs == ("a", "b", "cin")
        assert nl.outputs == ("sum", "cout")
        assert len(nl.gates) == 18

    def test_undefined_operand(self):
        with pytest.raises(NetlistError, match="undefined operand 'zz'"):
            parse_netlist(".inputs a\n.outputs y\ny = NOT zz\n")

    def test_pass_through(self):
        nl = parse_netlist(".inputs a b\n.outputs a b\n")
        assert nl.gates == ()
        assert nl.evaluate({"a": 1, "b": 0}) == {"a": 1, "b": 0}

    def test_syntax_error_names_line(self):
        with pytest.raises(NetlistError, match="line 3"):
            parse_netlist(".inputs a\n.outputs y\ny NOT a\n")

    def test_unsupported_gate_kind(self):
        with pytest.raises(NetlistError, match="unsupported gate kind 'NAND'"):
            parse_netlist(".inputs a b\n.outputs y\ny = NAND a b\n")

    def test_wrong_arity(self):
        with pytest.raises(NetlistError, match="takes 2 operand"):
            parse_netlist(".inputs a\n.outputs y\ny = NOR a\n")

    def test_cycle_detected(self):
        text = ".inputs a\n.outputs y\nx = NOR a y\ny = NOT x\n"
        with pytest.raises(NetlistError, match="cyclic"):
            parse_netlist(text)

    def test_out_of_order_definitions_are_sorted(self):
        text = ".inputs a\n.outputs y\ny = NOT g1\ng1 = NOT a\n"
        nl = parse_netlist(text)
        assert [g.gate_id for g in nl.gates] == ["g1", "y"]
        assert nl.evaluate({"a": 0}) == {"y": 0}

    def test_operand_named_twice(self):
        with pytest.raises(NetlistError) as got:
            parse_netlist(".inputs a\n.outputs y\ny = NOR a a\n")
        assert str(got.value) == "line 3: gate 'y' names operand 'a' twice"

    def test_redefinition_rejected(self):
        with pytest.raises(NetlistError, match="defined twice"):
            parse_netlist(".inputs a\n.outputs y\ny = NOT a\ny = NOT a\n")

    @pytest.mark.parametrize("text, line", [
        (".inputs a x\n.outputs x\nx = NOT a\n", 3),
        (".outputs x\nx = NOT a\n.inputs a x\n", 3),
    ])
    def test_a_name_is_an_input_or_a_gate_in_either_order(self, text, line):
        # a gate output that is also an input would be read from a scratch column
        with pytest.raises(NetlistError) as got:
            parse_netlist(text)
        assert str(got.value) == f"line {line}: 'x' defined twice"

    def test_the_duplicate_name_checks_are_linear(self):
        inputs = [f"i{k}" for k in range(20_000)]
        gates = [f"g{k}" for k in range(20_000)]
        text = "".join([".inputs ", " ".join(inputs), "\n.outputs ", " ".join(inputs + gates),
                        "\n", *(f"{g} = NOT {i}\n" for g, i in zip(gates, inputs))])
        start = time.process_time()
        nl = parse_netlist(text)
        assert time.process_time() - start < 3  # ~20 s when each test scanned a list
        assert nl.inputs == tuple(inputs)
        assert nl.outputs == tuple(inputs + gates)
        assert len(nl.gates) == 20_000

    def test_undefined_output(self):
        with pytest.raises(NetlistError, match="undefined output"):
            parse_netlist(".inputs a\n.outputs nope\n")

    def test_comments_and_blank_lines(self):
        nl = parse_netlist("# header\n\n.inputs a  # trailing\n.outputs y\ny = NOT a\n")
        assert nl.inputs == ("a",)


class TestEvaluation:
    def test_full_adder_truth_table(self):
        nl = load_bundled("full_adder")
        for a, b, cin in itertools.product((0, 1), repeat=3):
            assert nl.evaluate({"a": a, "b": b, "cin": cin}) == ref_full_adder(a, b, cin)

    def test_mux(self):
        nl = load_bundled("mux2")
        for a, b, sel in itertools.product((0, 1), repeat=3):
            expect = b if sel else a
            assert nl.evaluate({"a": a, "b": b, "sel": sel}) == {"y": expect}

    def test_not_chain(self):
        nl = load_bundled("not_chain")
        assert nl.evaluate({"a": 0}) == {"y": 1}
        assert nl.evaluate({"a": 1}) == {"y": 0}

    def test_decoder(self):
        nl = load_bundled("decoder3to8")
        for a, b, c in itertools.product((0, 1), repeat=3):
            out = nl.evaluate({"a": a, "b": b, "c": c})
            hot = 4 * a + 2 * b + c
            assert [out[f"y{k}"] for k in range(8)] == \
                [1 if k == hot else 0 for k in range(8)]

    def test_ripple_adder(self):
        nl = load_bundled("ripple_adder4")
        for a, b, cin in itertools.product(range(16), range(16), (0, 1)):
            assign = {"cin": cin}
            for k in range(4):
                assign[f"a{k}"] = (a >> k) & 1
                assign[f"b{k}"] = (b >> k) & 1
            out = nl.evaluate(assign)
            got = sum(out[f"s{k}"] << k for k in range(4)) + (out["cout"] << 4)
            assert got == a + b + cin

    def test_missing_input_value(self):
        nl = load_bundled("not_chain")
        with pytest.raises(NetlistError, match="missing value"):
            nl.evaluate({})

    def test_unknown_input_name_rejected(self):
        nl = load_bundled("full_adder")
        with pytest.raises(NetlistError, match="full_adder has no input 'typo'"):
            nl.evaluate({"a": 1, "b": 0, "cin": 1, "typo": 1})

    def test_all_bundled_parse(self):
        for name in BUNDLED:
            load_bundled(name)


# ----------------------------------------------------------------------
# gate order against the wave-by-wave Kahn sort

def wave_kahn_order(inputs, gates):
    """Oracle: repeatedly take, in file order, every pending gate whose
    operands are all resolved; raise like parse_netlist on a cycle."""
    ordered = []
    resolved = set(inputs)
    pending = {gate_id: (kind, operands) for gate_id, kind, operands in gates}
    while pending:
        ready = [gid for gid, (_, ops) in pending.items()
                 if all(op in resolved for op in ops)]
        if not ready:
            cyclic = ", ".join(sorted(pending))
            raise NetlistError(f"cyclic dependency among gates: {cyclic}")
        for gid in ready:
            ordered.append((gid, *pending.pop(gid)))
            resolved.add(gid)
    return ordered


@st.composite
def shuffled_netlists(draw, acyclic):
    """(inputs, gates in file order, text). Operands name only earlier gates
    when acyclic, any gate (itself included) otherwise; a NOR's two operands
    differ."""
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    n_gates = draw(st.integers(0, 25))
    gate_ids = [f"g{k}" for k in range(n_gates)]
    gates = []
    for k, gid in enumerate(gate_ids):
        pool = inputs + (gate_ids[:k] if acyclic else gate_ids)
        kind = draw(st.sampled_from(("NOR", "NOT") if len(pool) > 1 else ("NOT",)))
        arity = 2 if kind == "NOR" else 1
        operands = tuple(draw(st.lists(st.sampled_from(pool), min_size=arity,
                                       max_size=arity, unique=True)))
        gates.append((gid, kind, operands))
    lines = draw(st.permutations(
        [".inputs " + " ".join(inputs), ".outputs " + inputs[0]] + gates))
    in_file = [line for line in lines if isinstance(line, tuple)]
    text = "".join((line if isinstance(line, str) else
                    f"{line[0]} = {line[1]} " + " ".join(line[2])) + "\n"
                   for line in lines)
    return inputs, in_file, text


def parsed_order(text):
    return [(g.gate_id, g.kind, g.operands) for g in parse_netlist(text).gates]


class TestParseOrderOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=shuffled_netlists(acyclic=True))
    def test_dag_order_matches_wave_sort(self, case):
        inputs, gates, text = case
        assert parsed_order(text) == wave_kahn_order(inputs, gates)

    @settings(max_examples=150, deadline=None)
    @given(case=shuffled_netlists(acyclic=False))
    def test_cycle_message_matches_wave_sort(self, case):
        inputs, gates, text = case
        try:
            expected = wave_kahn_order(inputs, gates)
        except NetlistError as exc:
            with pytest.raises(NetlistError) as got:
                parse_netlist(text)
            assert str(got.value) == str(exc)
        else:
            assert parsed_order(text) == expected

    def test_gates_downstream_of_a_cycle_are_listed(self):
        text = (".inputs a\n.outputs a\nz = NOT y\nx = NOR a y\n"
                "y = NOT x\nw = NOT a\nv = NOT v\n")
        with pytest.raises(NetlistError) as got:
            parse_netlist(text)
        assert str(got.value) == "cyclic dependency among gates: v, x, y, z"
