"""Circuit intermediate representation.

Covers the OpenQASM 2.0 subset the rest of the pipeline consumes: a flat gate
list on a single quantum register, layered into an ASAP schedule. parse_qasm
reads each statement kind by one rule: GATES holds every gate's operand and
parameter counts, and max_qubits refuses a register too wide for a cluster at
its declaration. Everything here is immutable after construction and safe to
share across threads.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InfeasibleError, QasmError

# Gate name -> (operand count, angle parameter count). cu1 is accepted on
# input as an alias for cp.
GATES: dict[str, tuple[int, int]] = {
    "h": (1, 0), "x": (1, 0), "y": (1, 0), "z": (1, 0), "s": (1, 0), "t": (1, 0),
    "sdg": (1, 0), "tdg": (1, 0), "id": (1, 0), "rx": (1, 1), "ry": (1, 1),
    "rz": (1, 1), "u1": (1, 1), "u2": (1, 2), "u3": (1, 3),
    "cx": (2, 0), "cz": (2, 0), "swap": (2, 0), "cp": (2, 1),
}

# Known wider gates get a targeted "decompose first" message.
_WIDE_GATES = {"ccx", "cswap", "ccz", "c3x", "c4x", "mcx", "rccx", "rc3x"}


@dataclass(frozen=True)
class GateOp:
    """One gate application.

    qubits are indices into the circuit's single register. params holds the
    angle arguments in gate order. clbit is only set for measures and names
    the classical bit the result lands in.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class Circuit:
    """A gate list on one quantum register.

    barriers holds gate-list positions: a value b means a barrier sits
    immediately before gates[b]. Barriers and measures are kept so circuits
    re-serialize faithfully, but neither contributes interactions.
    """

    n_qubits: int
    gates: tuple[GateOp, ...]
    name: str = "circuit"
    n_clbits: int = 0
    barriers: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if len(g.qubits) not in (1, 2):
                raise ValueError(f"gate {g.name} must act on 1 or 2 qubits")
            if len(set(g.qubits)) != len(g.qubits):
                raise ValueError(f"gate {g.name} repeats a qubit operand")
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit index {q} out of range")
        for b in self.barriers:
            if not 0 <= b <= len(self.gates):
                raise ValueError(f"barrier position {b} out of range")

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def two_qubit_gate_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)


@dataclass(frozen=True)
class LayeredCircuit:
    """ASAP layering of a circuit.

    layer_of[g] is the 1-based layer of gate index g, and depth the number
    of layers, the largest entry of layer_of (0 without gates). Every layer
    in 1..depth holds at least one gate.
    """

    circuit: Circuit
    layer_of: tuple[int, ...]
    depth: int

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits


def layerize(circuit: Circuit) -> LayeredCircuit:
    """Assign every gate its earliest layer.

    A gate lands one past the latest layer among earlier gates that share a
    qubit with it. A barrier lifts the floor to the current maximum layer, so
    everything after it starts a fresh layer.
    """
    barrier_at: set[int] = set(circuit.barriers)
    last_layer = [0] * circuit.n_qubits
    floor = depth = 0
    layer_of: list[int] = []
    for idx, g in enumerate(circuit.gates):
        if idx in barrier_at:
            floor = depth
        lay = max([floor] + [last_layer[q] for q in g.qubits]) + 1
        layer_of.append(lay)
        depth = max(depth, lay)
        for q in g.qubits:
            last_layer[q] = lay
    return LayeredCircuit(circuit=circuit, layer_of=tuple(layer_of), depth=depth)


# --- OpenQASM 2.0 subset -----------------------------------------------------

# Unary signs and parentheses nest a parameter expression; each level of
# parentheses costs three stack frames of the recursive descent.
_MAX_NESTING = 100
# parse_qasm's statement memo starts afresh at this many entries, so a long
# text of distinct statements keeps a bounded number of them.
_MEMO_LIMIT = 1 << 16
_TOKEN_RE = re.compile(r"\s*(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?|pi|[()+\-*/])")


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate a parameter expression: numbers, pi, + - * / and parentheses."""
    tokens: list[str] = []
    pos, end = 0, len(expr.rstrip())  # each token skips the whitespace before it
    while pos < end:
        m = _TOKEN_RE.match(expr, pos)
        if m is None:
            raise QasmError(f"bad parameter expression '{expr}'", line)
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$end")
    at = depth = 0

    def peek() -> str:
        return tokens[at]

    def take() -> str:
        nonlocal at
        tok = tokens[at]
        at += 1
        return tok

    def parse_expr() -> float:
        val = parse_term()
        while peek() in ("+", "-"):
            if take() == "+":
                val += parse_term()
            else:
                val -= parse_term()
        return val

    def parse_term() -> float:
        val = parse_factor()
        while peek() in ("*", "/"):
            if take() == "*":
                val *= parse_factor()
            else:
                denom = parse_factor()
                if denom == 0:
                    raise QasmError(f"division by zero in '{expr}'", line)
                val /= denom
        return val

    def parse_factor() -> float:
        nonlocal depth
        outer = depth
        negate = False
        while peek() in ("+", "-"):  # a loop, so a run of signs cannot recurse
            negate ^= take() == "-"
            depth += 1
        tok = take()
        if tok == "(":
            depth += 1
        if depth > _MAX_NESTING:
            raise QasmError(f"parameter nested deeper than {_MAX_NESTING} signs and "
                            "parentheses", line)
        if tok == "(":
            val = parse_expr()
            if take() != ")":
                raise QasmError(f"unbalanced parentheses in '{expr}'", line)
        elif tok == "pi":
            val = math.pi
        else:
            try:
                val = float(tok)
            except ValueError:
                raise QasmError(f"bad token '{tok}' in parameter '{expr}'", line) from None
        depth = outer
        return -val if negate else val

    val = parse_expr()
    if peek() != "$end":
        raise QasmError(f"trailing junk in parameter '{expr}'", line)
    if not math.isfinite(val):
        raise QasmError(f"parameter '{expr}' is not a finite number", line)
    return val


_REG_RE = re.compile(r"^([qc])reg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\((.*)\))?\s+(.+)$")
_MEASURE_RE = re.compile(r"^measure\s+(\S+?)\s*->\s*(\S+)$")
_OPERAND_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?$")
# Register kind -> the words its messages use for the register and a position.
_KINDS = {"q": ("quantum", "qubit"), "c": ("classical", "bit")}


def _positions(reg: tuple[str, int] | None, kind: str, operand: str,
               line: int) -> tuple[int] | range:
    """The positions of the declared register `reg` (kind "q" or "c") that
    `operand` names: (i,) for name[i], every position for a bare name."""
    m = _OPERAND_RE.match(operand)
    if m is None:
        raise QasmError(f"bad operand '{operand}'", line)
    name, idx = m.groups()
    word, unit = _KINDS[kind]
    if reg is None or name != reg[0]:
        raise QasmError(f"unknown {word} register '{name}'", line)
    if idx is None:
        return range(reg[1])
    if (i := int(idx)) >= reg[1]:
        raise QasmError(f"{unit} index {i} out of range for {name}[{reg[1]}]", line)
    return (i,)


def parse_qasm(text: str, name: str = "circuit", max_qubits: int | None = None) -> Circuit:
    """Parse an OpenQASM 2.0 source string into a Circuit.

    Supports one qreg, an optional creg, barrier, measure and the gates in
    GATES, a 1-qubit gate broadcast over a bare register operand. Wider
    gates are rejected with a hint to decompose them first. Errors carry the
    offending source line. A qreg wider than max_qubits, if given, raises
    InfeasibleError at its declaration, before any gate is built.
    """
    regs: dict[str, tuple[str, int] | None] = {"q": None, "c": None}
    gates: list[GateOp] = []
    barriers: list[int] = []
    saw_version = False
    # Per-call memos of successes only, so each error is raised where it first
    # occurs: a gate or measure statement's gates, fixed once the registers it
    # names exist (cleared at _MEMO_LIMIT entries), and each parameter text's
    # value.
    memo: dict[str, list[GateOp]] = {}
    angles: dict[str, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            if (hit := memo.get(stmt)) is not None:
                gates += hit
                continue
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            if stmt.startswith("OPENQASM"):
                if not stmt.replace(" ", "").startswith("OPENQASM2"):
                    raise QasmError(f"unsupported version '{stmt}'", lineno)
                saw_version = True
                continue
            if stmt.startswith(("include ", "include\t", 'include"')):
                continue
            m = _REG_RE.match(stmt)
            if m:
                kind, size = m.group(1), int(m.group(3))
                if regs[kind] is not None:
                    raise QasmError(f"multiple {_KINDS[kind][0]} registers are not "
                                    "supported", lineno)
                if kind == "q" and size < 1:
                    raise QasmError("empty quantum register", lineno)
                if kind == "q" and max_qubits is not None and size > max_qubits:
                    raise InfeasibleError(f"{size} qubits exceed total capacity {max_qubits}")
                regs[kind] = (m.group(2), size)
                continue
            m = _MEASURE_RE.match(stmt)
            if m:
                qs = _positions(regs["q"], "q", m.group(1), lineno)
                cs = _positions(regs["c"], "c", m.group(2), lineno)
                if len(qs) != len(cs):
                    raise QasmError("measure operand sizes differ", lineno)
                gates += memo.setdefault(stmt, [GateOp("measure", (q,), (), clbit=c)
                                                for q, c in zip(qs, cs)])
                continue
            if stmt == "barrier" or stmt.startswith("barrier ") or stmt.startswith("barrier\t"):
                # Operand list ignored: every barrier is treated as full width.
                if regs["q"] is None:
                    raise QasmError("barrier before qreg declaration", lineno)
                barriers.append(len(gates))
                continue
            m = _GATE_RE.match(stmt)
            if m is None:
                raise QasmError(f"cannot parse statement '{stmt}'", lineno)
            gname, params_src, operands_src = m.groups()
            gname = "cp" if gname == "cu1" else gname
            if gname in _WIDE_GATES:
                raise QasmError(
                    f"gate '{gname}' acts on 3 or more qubits; decompose first", lineno
                )
            items = params_src.split(",") if params_src and not params_src.isspace() else ()
            if not all(map(str.strip, items)):
                raise QasmError(f"blank parameter in '{stmt}'", lineno)
            params = tuple([angles[p] if p in angles else
                            angles.setdefault(p, _eval_angle(p, lineno)) for p in items])
            if gname not in GATES:
                raise QasmError(f"unsupported gate '{gname}'", lineno)
            arity, want = GATES[gname]
            if len(params) != want:
                raise QasmError(f"{gname} takes {want} parameter(s)", lineno)
            operands = [o.strip() for o in operands_src.split(",")]
            if len(operands) != arity:
                what = "one operand" if arity == 1 else "two indexed operands"
                raise QasmError(f"{gname} takes {what}", lineno)
            if arity == 1:
                gates += memo.setdefault(stmt, [GateOp(gname, (q,), params) for q in
                                                _positions(regs["q"], "q", operands[0], lineno)])
                continue
            pair: list[int] = []
            for op in operands:
                qs = _positions(regs["q"], "q", op, lineno)
                if len(qs) != 1:
                    raise QasmError(f"{gname} operands must be indexed, got '{op}'", lineno)
                pair += qs
            if pair[0] == pair[1]:
                raise QasmError(f"{gname} operands must differ", lineno)
            gates += memo.setdefault(stmt, [GateOp(gname, tuple(pair), params)])

    if not saw_version:
        raise QasmError("missing OPENQASM 2.0 header", 1)
    if regs["q"] is None:
        raise QasmError("no quantum register declared", 1)
    return Circuit(
        n_qubits=regs["q"][1],
        gates=tuple(gates),
        name=name,
        n_clbits=regs["c"][1] if regs["c"] else 0,
        barriers=tuple(barriers),
    )


def serialize_qasm(circuit: Circuit) -> str:
    """Emit the circuit as OpenQASM 2.0 using the same subset parse_qasm reads."""
    out = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    if circuit.n_clbits > 0:
        out.append(f"creg c[{circuit.n_clbits}];")
    barrier_at: dict[int, int] = {}
    for b in circuit.barriers:
        barrier_at[b] = barrier_at.get(b, 0) + 1
    for idx, g in enumerate(circuit.gates):
        out.extend("barrier q;" for _ in range(barrier_at.get(idx, 0)))
        if g.name == "measure":
            out.append(f"measure q[{g.qubits[0]}] -> c[{g.clbit}];")
            continue
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.params:
            angle = ",".join(repr(p) for p in g.params)
            out.append(f"{g.name}({angle}) {args};")
        else:
            out.append(f"{g.name} {args};")
    out.extend("barrier q;" for _ in range(barrier_at.get(len(circuit.gates), 0)))
    return "\n".join(out) + "\n"
