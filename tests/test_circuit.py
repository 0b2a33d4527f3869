"""Circuit model, ASAP layering, interaction counting, QASM round trips."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcmap.bench import gen_adder, gen_qaoa, gen_qft
from dqcmap import circuit
from dqcmap.circuit import Circuit, GateOp, layerize, parse_qasm, serialize_qasm
from dqcmap.errors import InfeasibleError, QasmError
from dqcmap.segmentation import random_segment

from conftest import count_interactions, cx_chain


QASM_SMALL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q;
cx q[0],q[1];
rz(pi/2) q[2];
cu1(pi/4) q[0],q[2];
barrier q;
measure q -> c;
"""


class TestParse:
    def test_broadcast_and_gate_list(self):
        c = parse_qasm(QASM_SMALL)
        names = [g.name for g in c.gates]
        # h broadcast over the register, cu1 normalizes to cp, 3 measures
        assert names == ["h", "h", "h", "cx", "rz", "cp",
                         "measure", "measure", "measure"]
        assert c.n_qubits == 3
        assert c.n_clbits == 3
        assert c.gates[3].qubits == (0, 1)
        assert c.gates[5].qubits == (0, 2)
        assert c.gates[6].clbit == 0

    def test_angle_arithmetic(self):
        c = parse_qasm(QASM_SMALL)
        assert c.gates[4].params[0] == pytest.approx(math.pi / 2, rel=1e-12)
        assert c.gates[5].params[0] == pytest.approx(math.pi / 4, rel=1e-12)

    def test_compound_angle_expression(self):
        text = "OPENQASM 2.0;\nqreg q[1];\nrz(2*pi/4+1) q[0];\n"
        c = parse_qasm(text)
        assert c.gates[0].params[0] == pytest.approx(math.pi / 2 + 1, rel=1e-12)

    @pytest.mark.parametrize("expr, value", [
        ("(pi/2)", math.pi / 2),
        ("-(pi/4)", -math.pi / 4),
        ("2*(pi/4+1)", 2 * (math.pi / 4 + 1)),
        ("-" * 50 + "(" * 50 + "pi" + ")" * 50, math.pi),
    ], ids=["parenthesised", "negated", "product", "nested-to-the-bound"])
    def test_parenthesised_angle_expression(self, expr, value):
        c = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
        assert c.gates[0].params[0] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("spaced, plain", [
        ("rz(pi/4 ) q[0];", "rz(pi/4) q[0];"),
        ("rz( pi/4 ) q[0];", "rz(pi/4) q[0];"),
        ("rz(pi/4\t) q[0];", "rz(pi/4) q[0];"),
        ("u3(1, 2 ,3) q[0];", "u3(1,2,3) q[0];"),
        ("u3(1 , -2 , 2*pi ) q[0];", "u3(1,-2,2*pi) q[0];"),
    ])
    def test_space_before_close_or_comma_parses(self, spaced, plain):
        head = "OPENQASM 2.0;\nqreg q[1];\n"
        assert parse_qasm(head + spaced).gates == parse_qasm(head + plain).gates

    @pytest.mark.parametrize("expr", ["-" * 5000 + "1", "(" * 2000 + "1" + ")" * 2000],
                             ids=["5000-signs", "2000-parentheses"])
    def test_deeply_nested_angle_is_qasm_error(self, expr):
        with pytest.raises(QasmError, match="nested deeper"):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];\n")

    @pytest.mark.parametrize("expr", ["1e999", "1e308*10", "1e308*10-1e308*10"],
                             ids=["overflowing-literal", "overflowing-product", "nan"])
    def test_non_finite_angle_is_qasm_error(self, expr):
        with pytest.raises(QasmError, match="not a finite number"):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")

    def test_empty_parameter_list_means_none(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh() q[0]; h( ) q[1];")
        assert c.gates == (GateOp("h", (0,)), GateOp("h", (1,)))

    def test_unknown_gate_reports_line(self):
        text = "OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n"
        with pytest.raises(QasmError, match="line 3"):
            parse_qasm(text)

    def test_wide_gate_needs_decomposition(self):
        text = "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n"
        with pytest.raises(QasmError, match="decompose"):
            parse_qasm(text)

    def test_out_of_range_index(self):
        text = "OPENQASM 2.0;\nqreg q[2];\nh q[5];\n"
        with pytest.raises(QasmError):
            parse_qasm(text)

    def test_two_qregs_rejected(self):
        text = "OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n"
        with pytest.raises(QasmError):
            parse_qasm(text)

    def test_missing_header_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2];\nh q[0];\n")

    def test_register_wider_than_max_qubits_refused(self):
        with pytest.raises(InfeasibleError, match="5 qubits exceed total capacity 4"):
            parse_qasm("OPENQASM 2.0;\nqreg q[5];\nh q;\n", max_qubits=4)
        assert parse_qasm("OPENQASM 2.0;\nqreg q[4];\nh q;\n", max_qubits=4).n_gates == 4

    def test_include_matched_as_a_keyword(self):
        # include takes a file name after whitespace or at once; a statement
        # that only begins with the letters is a gate, and is checked as one
        for stmt in ('include "qelib1.inc"', 'include\t"qelib1.inc"', 'include"qelib1.inc"'):
            c = parse_qasm(f"OPENQASM 2.0;\n{stmt};\nqreg q[2];\ncx q[0],q[1];\n")
            assert [g.name for g in c.gates] == ["cx"]
        with pytest.raises(QasmError, match="unsupported gate 'includes'") as info:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nincludes q[0];\ncx q[0],q[1];\n")
        assert info.value.line == 3


HEAD = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"  # the statement under test is line 4


# One input per raise site of the reader, plus inputs that fail two checks
# and must report the one the reader makes first.
@pytest.mark.parametrize("text, line, fragment", [
    (HEAD + "h q[x];", 4, "bad operand 'q[x]'"),
    (HEAD + "h r[0];", 4, "unknown quantum register 'r'"),
    (HEAD + "measure q[0] -> d[0];", 4, "unknown classical register 'd'"),
    (HEAD + "h q[5];", 4, "qubit index 5 out of range for q[2]"),
    (HEAD + "h q[007];", 4, "qubit index 7 out of range for q[2]"),
    (HEAD + "measure q[0] -> c[3];", 4, "bit index 3 out of range for c[2]"),
    (HEAD + "qreg r[2];", 4, "multiple quantum registers are not supported"),
    (HEAD + "creg d[2];", 4, "multiple classical registers are not supported"),
    ("OPENQASM 2.0;\nqreg q[0];", 2, "empty quantum register"),
    ("OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nmeasure q -> c;", 4,
     "measure operand sizes differ"),
    ("OPENQASM 2.0;\nbarrier q;\nqreg q[2];", 2, "barrier before qreg declaration"),
    (HEAD + "h;", 4, "cannot parse statement 'h'"),
    (HEAD + "ccx q[0],q[1],q[0];", 4, "gate 'ccx' acts on 3 or more qubits"),
    (HEAD + "foo q[0];", 4, "unsupported gate 'foo'"),
    (HEAD + "rz q[0];", 4, "rz takes 1 parameter(s)"),
    (HEAD + "h(pi) q[0];", 4, "h takes 0 parameter(s)"),
    (HEAD + "cp q[0],q[1];", 4, "cp takes 1 parameter(s)"),
    (HEAD + "cu1 q[0],q[1];", 4, "cp takes 1 parameter(s)"),
    (HEAD + "cx(pi) q[0],q[1];", 4, "cx takes 0 parameter(s)"),
    (HEAD + "h q[0],q[1];", 4, "h takes one operand"),
    (HEAD + "cx q[0];", 4, "cx takes two indexed operands"),
    (HEAD + "cx q,q[1];", 4, "cx operands must be indexed, got 'q'"),
    (HEAD + "cx q[1],q;", 4, "cx operands must be indexed, got 'q'"),
    (HEAD + "cx q[1],q[1];", 4, "cx operands must differ"),
    ("qreg q[2];\nh q[0];", 1, "missing OPENQASM 2.0 header"),
    ("OPENQASM 2.0;\ncreg c[2];", 1, "no quantum register declared"),
    ("OPENQASM 3.0;\nqreg q[2];", 1, "unsupported version 'OPENQASM 3.0'"),
    # the order of checks within a statement
    (HEAD + "h q[0]; foo q[9];", 4, "unsupported gate 'foo'"),
    (HEAD + "ccx(1e999) q[0],q[1],q[0];", 4, "gate 'ccx' acts on 3 or more"),
    (HEAD + "foo(1e999) q[0];", 4, "not a finite number"),
    (HEAD + "rz q[0],q[1];", 4, "rz takes 1 parameter(s)"),
    (HEAD + "cx q[5];", 4, "cx takes two indexed operands"),
    (HEAD + "cx q,r[0];", 4, "cx operands must be indexed, got 'q'"),
    (HEAD + "cx r[0],q;", 4, "unknown quantum register 'r'"),
    (HEAD + "measure r[0] -> d[0];", 4, "unknown quantum register 'r'"),
    (HEAD + "measure q -> c[5];", 4, "bit index 5 out of range for c[2]"),
    ("OPENQASM 2.0;\nqreg q[2];\nqreg r[0];", 3, "multiple quantum registers"),
    # a blank item in a parameter list is refused, not dropped
    (HEAD + "rz(,pi) q[0];", 4, "blank parameter in 'rz(,pi) q[0]'"),
    (HEAD + "rz(pi,) q[0];", 4, "blank parameter in 'rz(pi,) q[0]'"),
    (HEAD + "u3(1,,2,3) q[0];", 4, "blank parameter in 'u3(1,,2,3) q[0]'"),
    (HEAD + "u2(1, \t) q[0];", 4, "blank parameter in 'u2(1, \t) q[0]'"),
    (HEAD + "rz( ) q[0];", 4, "rz takes 1 parameter(s)"),
    (HEAD + "foo(,1) q[0];", 4, "blank parameter in 'foo(,1) q[0]'"),
    # a statement or angle parsed before does not move an error's line
    (HEAD + "rz(1/0) q[0];\nh q[0];\nrz(1/0) q[0];", 4, "division by zero"),
    (HEAD + "h q[0];\nh q[0];\nh q[0]; h q[2];", 6, "qubit index 2 out of range"),
    (HEAD + "rz(pi) q[0];\nrz(pi) q[0];\nrz(pi) q[0],q[1];", 6, "rz takes one operand"),
])
def test_reader_error_table(text, line, fragment):
    with pytest.raises(QasmError) as info:
        parse_qasm(text)
    assert info.value.line == line
    assert fragment in str(info.value)


def statement_oracle(text: str) -> tuple[tuple[GateOp, ...], tuple[int, ...]]:
    """The gates and barriers of `text` with each statement parsed alone,
    after the header's declarations, and the gates concatenated."""
    header: list[str] = []
    body: list[str] = []
    for raw in text.splitlines():
        for stmt in filter(None, (s.strip() for s in raw.split("//")[0].split(";"))):
            declares = stmt.startswith(("OPENQASM", "include", "qreg", "creg"))
            (header if declares else body).append(stmt + ";")
    gates: list[GateOp] = []
    barriers: list[int] = []
    for stmt in body:
        alone = parse_qasm("\n".join(header + [stmt]))
        barriers += [len(gates) + b for b in alone.barriers]
        gates += alone.gates
    return tuple(gates), tuple(barriers)


HAND_MADE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q;  // a broadcast
cx q[0],q[1]; cx q[0],q[1]; rz(pi/4) q[2];
rz(pi/4) q[2]; rz( pi/4) q[2]; rz(pi/4) q[3];
barrier q;
cu1(pi/8) q[1],q[3];
cp(pi/8) q[1],q[3]; cu1(pi/8) q[1],q[3];
h q;
barrier q[0],q[1]; barrier q;
u3(0.1,-0.2,2*pi) q[0]; u3(0.1,-0.2,2*pi) q[0]; u2(pi/4,pi/4) q[3]; h() q[1];
measure q[1] -> c[1];
measure q -> c;
measure q[1] -> c[1];
barrier q;
"""


class TestParseMemos:
    """parse_qasm parses each distinct statement and parameter text once; the
    reuse must not show in what it returns or in the errors it raises."""

    @pytest.mark.parametrize("circ", [gen_adder(16), gen_qaoa(16, 3, seed=7), gen_qft(12)],
                             ids=["adder", "qaoa-p3", "qft"])
    def test_generated_texts_match_statement_oracle(self, circ):
        text = serialize_qasm(circ)
        c = parse_qasm(text)
        assert (c.gates, c.barriers) == statement_oracle(text)
        assert c.gates == circ.gates

    def test_hand_made_text_matches_statement_oracle(self):
        c = parse_qasm(HAND_MADE)
        gates, barriers = statement_oracle(HAND_MADE)
        assert c.gates == gates
        assert c.barriers == barriers == (10, 17, 17, 27)
        assert c.n_gates == 27
        assert [g.name for g in c.gates].count("cp") == 3

    @pytest.mark.parametrize("text", [serialize_qasm(gen_adder(16)),
                                      serialize_qasm(gen_qaoa(16, 3, seed=7)),
                                      serialize_qasm(gen_qft(12)), HAND_MADE],
                             ids=["adder", "qaoa-p3", "qft", "hand-made"])
    def test_cleared_memo_matches_statement_oracle(self, text, monkeypatch):
        # the statement memo starts afresh every two entries
        monkeypatch.setattr(circuit, "_MEMO_LIMIT", 2)
        c = parse_qasm(text)
        assert (c.gates, c.barriers) == statement_oracle(text)

    def test_memos_live_for_one_call(self):
        # the same statement text broadcasts over each call's own register
        assert parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q;").n_gates == 2
        assert parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q;").n_gates == 3
        assert parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[2];").n_gates == 1
        with pytest.raises(QasmError, match="qubit index 2 out of range") as info:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[2];")
        assert info.value.line == 3


class TestCircuitModel:
    def test_gate_index_bounds_checked(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, gates=(GateOp("cx", (0, 2), ()),), name="bad")

    def test_duplicate_qubits_in_gate_rejected(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, gates=(GateOp("cx", (1, 1), ()),), name="bad")

    def test_two_qubit_count(self):
        c = parse_qasm(QASM_SMALL)
        assert c.two_qubit_gate_count == 2
        assert c.n_gates == 9


class TestLayerize:
    def test_asap_hand_trace(self):
        # g0 h0 | g1 cx01 | g2 cx23 | g3 cx12 | g4 h3
        gates = (
            GateOp("h", (0,), ()),
            GateOp("cx", (0, 1), ()),
            GateOp("cx", (2, 3), ()),
            GateOp("cx", (1, 2), ()),
            GateOp("h", (3,), ()),
        )
        lc = layerize(Circuit(n_qubits=4, gates=gates, name="t"))
        # layers: {g0, g2}, {g1, g4}, {g3}
        assert lc.depth == 3
        assert lc.layer_of == (1, 2, 1, 3, 2)

    def test_barrier_lifts_floor(self):
        text = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbarrier q;\nh q[1];\n"
        lc = layerize(parse_qasm(text))
        # without the barrier both h gates would share layer 1
        assert lc.layer_of == (1, 2)
        assert lc.depth == 2

    def test_empty_circuit(self):
        lc = layerize(Circuit(n_qubits=3, gates=(), name="empty"))
        assert lc.depth == 0
        assert lc.layer_of == ()


@st.composite
def random_circuits(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    n_gates = draw(st.integers(min_value=0, max_value=25))
    gates = []
    for _ in range(n_gates):
        if draw(st.booleans()):
            q = draw(st.integers(min_value=0, max_value=n - 1))
            gates.append(GateOp("h", (q,), ()))
        else:
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != a))
            gates.append(GateOp("cx", (a, b), ()))
    return Circuit(n_qubits=n, gates=tuple(gates), name="rand")


class TestLayerInvariants:
    @given(random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_partition_and_order(self, circ):
        lc = layerize(circ)
        assert len(lc.layer_of) == circ.n_gates
        # every layer 1..depth holds a gate, and a layer's gates share no qubit
        assert set(lc.layer_of) == set(range(1, lc.depth + 1))
        used: dict[int, set[int]] = {}
        for gi, lay in enumerate(lc.layer_of):
            qs = set(circ.gates[gi].qubits)
            assert not (qs & used.get(lay, set()))
            used.setdefault(lay, set()).update(qs)
        # ASAP: each gate sits strictly after every earlier gate sharing a qubit
        for gi, gate in enumerate(circ.gates):
            for gj in range(gi):
                if set(gate.qubits) & set(circ.gates[gj].qubits):
                    assert lc.layer_of[gi] > lc.layer_of[gj]

    @given(random_circuits(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interaction_count_additivity(self, circ, data):
        # The pair counts of any cut into segments add up to the whole
        # circuit's.
        lc = layerize(circ)
        if lc.depth < 2:
            return
        n_segments = data.draw(st.integers(min_value=2, max_value=lc.depth))
        parts = random_segment(lc, n_segments, data.draw(st.integers(0, 1000)))
        merged: dict = {}
        for part in parts:
            for pair, cnt in part.pairs.items():
                merged[pair] = merged.get(pair, 0) + cnt
        assert merged == count_interactions(lc, 1, lc.depth)


class TestInteractionCount:
    def test_hand_counts(self):
        circ = cx_chain(3, [(0, 1), (0, 1), (1, 2)])
        lc = layerize(circ)
        assert count_interactions(lc, 1, lc.depth) == {(0, 1): 2, (1, 2): 1}
        (whole,) = random_segment(lc, 1, seed=0)
        assert whole.pairs == {(0, 1): 2, (1, 2): 1}

    def test_range_validation(self):
        # the oracle refuses intervals outside the circuit
        lc = layerize(cx_chain(2, [(0, 1)]))
        with pytest.raises(ValueError):
            count_interactions(lc, 0, 1)
        with pytest.raises(ValueError):
            count_interactions(lc, 1, 2)


class TestRoundTrip:
    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_serialize_parse_identity(self, circ):
        back = parse_qasm(serialize_qasm(circ))
        assert back.n_qubits == circ.n_qubits
        assert [g.name for g in back.gates] == [g.name for g in circ.gates]
        assert [g.qubits for g in back.gates] == [g.qubits for g in circ.gates]

    def test_parameters_survive(self):
        c = parse_qasm(QASM_SMALL)
        back = parse_qasm(serialize_qasm(c))
        assert back.gates == c.gates
        assert back.barriers == c.barriers
