"""Benchmark generators checked against a tiny statevector simulator.

The simulator keeps a sparse dict of basis amplitudes and supports exactly
the gate set the generators emit, so circuit semantics (QFT spectrum, adder
arithmetic) are verified independently of any mapping code.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter

import pytest

from dqcmap.bench import gen_adder, gen_qaoa, gen_qft
from dqcmap.circuit import Circuit, layerize

SQ2 = 1 / math.sqrt(2)


def simulate(circ: Circuit, init_idx: int) -> dict[int, complex]:
    """Sparse statevector run from one basis state. Qubit q is bit q."""
    state: dict[int, complex] = {init_idx: 1.0 + 0.0j}
    for g in circ.gates:
        nxt: dict[int, complex] = {}
        if g.name == "h":
            q = g.qubits[0]
            for idx, amp in state.items():
                lo = idx & ~(1 << q)
                hi = lo | (1 << q)
                sign = -1.0 if (idx >> q) & 1 else 1.0
                nxt[lo] = nxt.get(lo, 0.0) + amp * SQ2
                nxt[hi] = nxt.get(hi, 0.0) + amp * SQ2 * sign
            state = {k: v for k, v in nxt.items() if abs(v) > 1e-12}
        elif g.name == "cx":
            c, t = g.qubits
            for idx, amp in state.items():
                j = idx ^ (1 << t) if (idx >> c) & 1 else idx
                nxt[j] = nxt.get(j, 0.0) + amp
            state = nxt
        elif g.name == "swap":
            a, b = g.qubits
            for idx, amp in state.items():
                j = idx
                if (idx >> a) & 1 != (idx >> b) & 1:
                    j ^= (1 << a) | (1 << b)
                nxt[j] = nxt.get(j, 0.0) + amp
            state = nxt
        elif g.name in ("t", "tdg"):
            q = g.qubits[0]
            ph = cmath.exp(1j * math.pi / 4 * (1 if g.name == "t" else -1))
            state = {idx: amp * ph if (idx >> q) & 1 else amp
                     for idx, amp in state.items()}
        elif g.name == "cp":
            c, t = g.qubits
            ph = cmath.exp(1j * g.params[0])
            state = {idx: amp * ph if ((idx >> c) & 1 and (idx >> t) & 1) else amp
                     for idx, amp in state.items()}
        else:
            raise ValueError(f"simulator does not support '{g.name}'")
    return state


class TestQft:
    def test_gate_inventory(self):
        circ = gen_qft(4)
        names = Counter(g.name for g in circ.gates)
        assert names == {"h": 4, "cp": 6, "swap": 2}
        assert sum(g.is_two_qubit for g in circ.gates) == 8  # n(n-1)/2 + n//2

    def test_layering(self):
        lc = layerize(gen_qft(4))
        # layers: [0], [1], [2, 4], [3, 5], [6, 7], [8], [9, 11], [10]
        assert lc.layer_of == (1, 2, 3, 4, 3, 4, 5, 5, 6, 7, 8, 7)
        assert lc.depth == 8

    def test_spectrum_is_discrete_fourier(self):
        # qubit 0 is the most significant bit of the transformed integer
        n, size = 3, 8
        circ = gen_qft(n)

        def basis(x: int) -> int:
            return sum(((x >> (n - 1 - q)) & 1) << q for q in range(n))

        for x in range(size):
            state = simulate(circ, basis(x))
            for y in range(size):
                want = cmath.exp(2j * math.pi * x * y / size) / math.sqrt(size)
                assert abs(state.get(basis(y), 0.0) - want) < 1e-9, (x, y)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gen_qft(1)

    def test_builds_past_float_exponent_range(self):
        # 2 ** (k - j) no longer fits a float once k - j reaches 1024
        n = 1100
        circ = gen_qft(n)
        assert sum(g.is_two_qubit for g in circ.gates) == n * (n - 1) // 2 + n // 2
        angle = {g.qubits[0] - g.qubits[1]: g.params[0]
                 for g in circ.gates if g.name == "cp" and g.qubits[1] == 0}
        assert all(angle[e] == math.pi / 2 ** e for e in range(1, 1024))
        steps = [angle[e] for e in range(1, n)]
        assert all(a >= b >= 0.0 for a, b in zip(steps, steps[1:]))


class TestAdder:
    def _add(self, n: int, a_val: int, b_val: int):
        circ = gen_adder(n)
        bits = (n - 2) // 2
        idx = 0
        for i in range(bits):
            if (a_val >> i) & 1:
                idx |= 1 << (1 + 2 * i)
            if (b_val >> i) & 1:
                idx |= 1 << (2 + 2 * i)
        state = simulate(circ, idx)
        assert len(state) == 1, "adder must act classically on basis states"
        (out, amp), = state.items()
        assert abs(amp - 1.0) < 1e-9
        a_out = sum(((out >> (1 + 2 * i)) & 1) << i for i in range(bits))
        b_out = sum(((out >> (2 + 2 * i)) & 1) << i for i in range(bits))
        return a_out, b_out, (out >> (2 * bits + 1)) & 1, out & 1

    def test_gate_inventory(self):
        circ = gen_adder(16)
        assert len(circ.gates) == 239
        assert sum(g.is_two_qubit for g in circ.gates) == 113
        assert {g.name for g in circ.gates} == {"h", "cx", "t", "tdg"}

    @pytest.mark.parametrize("a,b", [(5, 9), (0, 0), (1, 1), (100, 28), (127, 127)])
    def test_ripple_carry_arithmetic(self, a, b):
        a_out, b_out, cout, cin = self._add(16, a, b)
        assert a_out == a, "operand register must be restored"
        assert b_out == (a + b) % 128
        assert cout == (a + b) // 128
        assert cin == 0

    def test_small_width(self):
        # n=6 gives 2-bit operands
        a_out, b_out, cout, _ = self._add(6, 3, 2)
        assert (a_out, b_out, cout) == (3, 1, 1)  # 3+2 = 5 = 4+1

    def test_odd_budget_leaves_idle_qubit(self):
        circ = gen_adder(17)
        assert circ.n_qubits == 17
        assert max(q for g in circ.gates for q in g.qubits) == 15

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gen_adder(3)


class TestQaoa:
    def test_gate_inventory(self):
        circ = gen_qaoa(16, 1, seed=1)
        names = Counter(g.name for g in circ.gates)
        assert names == {"h": 16, "cz": 24, "rz": 48, "rx": 16}
        assert len(circ.gates) == 104

    def test_graph_is_three_regular(self):
        deg: Counter = Counter()
        edges = set()
        for g in gen_qaoa(16, 1, seed=1).gates:
            if g.name == "cz":
                deg[g.qubits[0]] += 1
                deg[g.qubits[1]] += 1
                edges.add(tuple(sorted(g.qubits)))
        assert len(deg) == 16
        assert set(deg.values()) == {3}
        assert len(edges) == 24  # all distinct

    def test_layers_scale_gate_count(self):
        one = gen_qaoa(12, 1, seed=5)
        two = gen_qaoa(12, 2, seed=5)
        n_h = 12
        assert len(two.gates) - n_h == 2 * (len(one.gates) - n_h)

    def test_seed_determinism(self):
        assert gen_qaoa(16, 1, seed=7).gates == gen_qaoa(16, 1, seed=7).gates
        assert gen_qaoa(16, 1, seed=1).gates != gen_qaoa(16, 1, seed=2).gates

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_qaoa(1, 1, seed=0)
        with pytest.raises(ValueError):
            gen_qaoa(8, 0, seed=0)
