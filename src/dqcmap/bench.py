"""Benchmark circuit generators.

Three families with distinct interaction structure: the quantum Fourier
transform (all-to-all controlled phases), a QAOA MaxCut ansatz on a random
3-regular graph (sparse, repeated), and a ripple-carry adder (nearest
neighbor chains). All are emitted in the supported gate subset; Toffolis in
the adder come pre-decomposed.
"""
from __future__ import annotations

import math
import random

from .circuit import Circuit, GateOp
from .seeding import component_rng


def gen_qft(n: int) -> Circuit:
    """n-qubit quantum Fourier transform.

    Per target j: a Hadamard, then controlled phases cp(pi/2^(k-j)) from each
    later qubit k; final swaps reverse the register. Two-qubit gate count is
    n(n-1)/2 + floor(n/2).
    """
    if n < 2:
        raise ValueError("qft needs at least 2 qubits")
    gates: list[GateOp] = []
    for j in range(n):
        gates.append(GateOp("h", (j,)))
        for k in range(j + 1, n):
            # pi / 2^(k-j) without forming 2^(k-j), which overflows a float past 1023
            gates.append(GateOp("cp", (k, j), (math.ldexp(math.pi, j - k),)))
    for i in range(n // 2):
        gates.append(GateOp("swap", (i, n - 1 - i)))
    return Circuit(n_qubits=n, gates=tuple(gates), name=f"qft_n{n}")


def _three_regular_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random cubic-ish graph: a random cycle plus a random matching.

    Exactly 3-regular for even n >= 4; for odd n one vertex stays at degree
    2. Tiny n degrades gracefully to whatever simple graph fits.
    """
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for _ in range(64):
        pairing = list(range(n))
        rng.shuffle(pairing)
        matching = []
        ok = True
        for i in range(0, n - 1, 2):
            a, b = pairing[i], pairing[i + 1]
            key = (min(a, b), max(a, b))
            if key in edges:
                ok = False
                break
            matching.append(key)
        if ok:
            edges.update(matching)
            break
    return sorted(edges)


def gen_qaoa(n: int, p_layers: int, seed: int) -> Circuit:
    """QAOA MaxCut ansatz on a random 3-regular graph.

    Each layer applies cz plus rz rotations along every graph edge, then an
    rx mixer on every qubit. Angles are drawn from the seeded stream, so the
    same (n, p_layers, seed) always yields the same circuit.
    """
    if n < 2:
        raise ValueError("qaoa needs at least 2 qubits")
    if p_layers < 1:
        raise ValueError("p_layers must be >= 1")
    rng = component_rng(seed, f"qaoa:{n}:{p_layers}")
    edges = _three_regular_edges(n, rng)
    gates: list[GateOp] = [GateOp("h", (q,)) for q in range(n)]
    for _ in range(p_layers):
        gamma = rng.uniform(0, 2 * math.pi)
        beta = rng.uniform(0, math.pi)
        for a, b in edges:
            gates.append(GateOp("cz", (a, b)))
            gates.append(GateOp("rz", (a,), (gamma,)))
            gates.append(GateOp("rz", (b,), (gamma,)))
        for q in range(n):
            gates.append(GateOp("rx", (q,), (beta,)))
    return Circuit(n_qubits=n, gates=tuple(gates), name=f"qaoa_n{n}")


def _ccx(gates: list[GateOp], a: int, b: int, c: int) -> None:
    """Standard Toffoli decomposition: controls a, b, target c."""
    gates.append(GateOp("h", (c,)))
    gates.append(GateOp("cx", (b, c)))
    gates.append(GateOp("tdg", (c,)))
    gates.append(GateOp("cx", (a, c)))
    gates.append(GateOp("t", (c,)))
    gates.append(GateOp("cx", (b, c)))
    gates.append(GateOp("tdg", (c,)))
    gates.append(GateOp("cx", (a, c)))
    gates.append(GateOp("t", (b,)))
    gates.append(GateOp("t", (c,)))
    gates.append(GateOp("h", (c,)))
    gates.append(GateOp("cx", (a, b)))
    gates.append(GateOp("t", (a,)))
    gates.append(GateOp("tdg", (b,)))
    gates.append(GateOp("cx", (a, b)))


def gen_adder(n: int) -> Circuit:
    """Ripple-carry adder sized to a total qubit budget of n.

    Register width is (n - 2) // 2: one carry-in, two operand registers
    interleaved along the qubit line, one carry-out. Majority / unmajority
    blocks are built from cx and decomposed Toffolis, so interactions stay
    nearest neighbor. Odd n leaves the last qubit idle.
    """
    if n < 4:
        raise ValueError("adder needs at least 4 qubits")
    bits = (n - 2) // 2
    cin = 0
    a = [1 + 2 * i for i in range(bits)]
    b = [2 + 2 * i for i in range(bits)]
    cout = 2 * bits + 1
    gates: list[GateOp] = []

    def maj(x: int, y: int, z: int) -> None:
        gates.append(GateOp("cx", (z, y)))
        gates.append(GateOp("cx", (z, x)))
        _ccx(gates, x, y, z)

    def uma(x: int, y: int, z: int) -> None:
        _ccx(gates, x, y, z)
        gates.append(GateOp("cx", (z, x)))
        gates.append(GateOp("cx", (x, y)))

    maj(cin, b[0], a[0])
    for i in range(1, bits):
        maj(a[i - 1], b[i], a[i])
    gates.append(GateOp("cx", (a[bits - 1], cout)))
    for i in range(bits - 1, 0, -1):
        uma(a[i - 1], b[i], a[i])
    uma(cin, b[0], a[0])
    return Circuit(n_qubits=n, gates=tuple(gates), name=f"adder_n{n}")
