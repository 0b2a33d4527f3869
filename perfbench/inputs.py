"""Workload inputs, generated from the workload seed without importing dqcmap.

Each workload is a list of jobs. A job holds the OpenQASM text and the
topology JSON the compiler receives, plus the gate list and link table the
output checker uses, so the checker never reads anything the compiler made.

The seed relabels the QPUs of a fixed cluster design and draws the QAOA
graph and the compiler's run seed. The size and shape of every instance,
and so the amount of work, are the same for every seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

# The cluster design for n QPUs: position i gets coupling shape SHAPES[i]
# and the k-th interconnect link gets cost factor LINK_COSTS[k]. All sums of
# two cost factors differ and each single one is below any sum of three, so
# the cheapest path between two QPUs of a ring or a line is unique.
SHAPES = ("grid", "ring", "heavy_hex_like", "line")
LINK_COSTS = (1.0, 1.25, 1.75, 2.5)


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- circuits -------------------------------------------------------------------

Gate = tuple  # (name, qubits, params)


def qft_gates(n: int) -> list[Gate]:
    gates: list[Gate] = []
    for j in range(n):
        gates.append(("h", (j,), ()))
        for k in range(j + 1, n):
            gates.append(("cp", (k, j), (math.pi / 2 ** (k - j),)))
    for i in range(n // 2):
        gates.append(("swap", (i, n - 1 - i), ()))
    return gates


def _ccx(gates: list[Gate], a: int, b: int, c: int) -> None:
    for name, qs in (
        ("h", (c,)), ("cx", (b, c)), ("tdg", (c,)), ("cx", (a, c)), ("t", (c,)),
        ("cx", (b, c)), ("tdg", (c,)), ("cx", (a, c)), ("t", (b,)), ("t", (c,)),
        ("h", (c,)), ("cx", (a, b)), ("t", (a,)), ("tdg", (b,)), ("cx", (a, b)),
    ):
        gates.append((name, qs, ()))


def adder_gates(n: int) -> list[Gate]:
    """Ripple-carry (Cuccaro) adder on n qubits with decomposed Toffolis."""
    bits = (n - 2) // 2
    cin, cout = 0, 2 * bits + 1
    a = [1 + 2 * i for i in range(bits)]
    b = [2 + 2 * i for i in range(bits)]
    gates: list[Gate] = []

    def maj(x: int, y: int, z: int) -> None:
        gates.append(("cx", (z, y), ()))
        gates.append(("cx", (z, x), ()))
        _ccx(gates, x, y, z)

    def uma(x: int, y: int, z: int) -> None:
        _ccx(gates, x, y, z)
        gates.append(("cx", (z, x), ()))
        gates.append(("cx", (x, y), ()))

    maj(cin, b[0], a[0])
    for i in range(1, bits):
        maj(a[i - 1], b[i], a[i])
    gates.append(("cx", (a[bits - 1], cout), ()))
    for i in range(bits - 1, 0, -1):
        uma(a[i - 1], b[i], a[i])
    uma(cin, b[0], a[0])
    return gates


def cubic_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random 3-regular graph on an even n >= 4: a cycle plus a matching."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    while True:
        pairing = list(range(n))
        rng.shuffle(pairing)
        matching = {tuple(sorted(pairing[i:i + 2])) for i in range(0, n, 2)}
        if not matching & edges:
            return sorted(edges | matching)


def qaoa_gates(n: int, p_layers: int, rng: random.Random) -> list[Gate]:
    edges = cubic_graph(n, rng)
    gates: list[Gate] = [("h", (q,), ()) for q in range(n)]
    for _ in range(p_layers):
        gamma, beta = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)
        for a, b in edges:
            gates += [("cz", (a, b), ()), ("rz", (a,), (gamma,)), ("rz", (b,), (gamma,))]
        gates += [("rx", (q,), (beta,)) for q in range(n)]
    return gates


def to_qasm(n: int, gates: list[Gate]) -> str:
    out = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for name, qs, params in gates:
        args = ",".join(f"q[{q}]" for q in qs)
        angle = "(" + ",".join(repr(p) for p in params) + ")" if params else ""
        out.append(f"{name}{angle} {args};")
    return "\n".join(out) + "\n"


# -- topologies -----------------------------------------------------------------

def _line(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _ring(n: int) -> list[tuple[int, int]]:
    return _line(n) + ([(0, n - 1)] if n >= 3 else [])


def _grid(n: int) -> list[tuple[int, int]]:
    rows = max(1, int(n ** 0.5))
    cols = -(-n // rows)
    edges = []
    for v in range(n):
        r, c = divmod(v, cols)
        if c + 1 < cols and v + 1 < n:
            edges.append((v, v + 1))
        if (r + 1) * cols + c < n:
            edges.append((v, (r + 1) * cols + c))
    return edges


def _heavy_hex_like(n: int) -> list[tuple[int, int]]:
    return _line(n) + [(i, i + 5) for i in range(0, n - 5, 10)]


_COUPLING = {"line": _line, "ring": _ring, "grid": _grid, "heavy_hex_like": _heavy_hex_like}


def topology(kind: str, sizes: list[int], rng: random.Random) -> dict:
    """Cluster config in the schema `load_cluster` reads.

    The design is fixed by `kind` and `sizes`; the seeded `rng` only relabels
    its QPUs, so every seed yields an isomorphic cluster of equal difficulty.
    """
    n = len(sizes)
    label = list(range(n))
    rng.shuffle(label)  # design position -> 0-based QPU id
    qpus = [None] * n
    for pos, cap in enumerate(sizes):
        qpus[label[pos]] = {
            "name": f"qpu{label[pos] + 1}", "comp_capacity": cap,
            "coupling": [list(e) for e in _COUPLING[SHAPES[pos]](cap)],
            "comm_qubits": max(1, cap // 8),
        }
    edges = _ring(n) if kind == "ring" else _line(n)
    links = sorted(
        (min(label[a], label[b]) + 1, max(label[a], label[b]) + 1, cost)
        for (a, b), cost in zip(edges, LINK_COSTS)
    )
    return {"qpus": qpus,
            "links": [{"a": a, "b": b, "cost_factor": c} for a, b, c in links]}


# -- workloads ------------------------------------------------------------------

@dataclass
class Job:
    name: str
    kind: str  # "map" | "ablate"
    n_qubits: int
    gates: list[Gate]
    config: dict
    run_seed: int
    iters_per_segment: int | None = None
    qasm: str = field(init=False)
    topology_json: str = field(init=False)

    def __post_init__(self):
        self.qasm = to_qasm(self.n_qubits, self.gates)
        self.topology_json = json.dumps(self.config, sort_keys=True)


def _map_job(seed: int, name: str, n: int, gates: list[Gate], kind: str,
             sizes: list[int], iters: int | None = None) -> Job:
    rng = random.Random(derive_seed(seed, f"topology:{name}"))
    return Job(name=name, kind="map", n_qubits=n, gates=gates,
               config=topology(kind, sizes, rng),
               run_seed=derive_seed(seed, f"run:{name}") % 2 ** 31,
               iters_per_segment=iters)


def build_workload(workload: str, seed: int) -> list[Job]:
    if workload == "map-qft20-ring4":
        return [_map_job(seed, "qft20", 20, qft_gates(20), "ring", [5, 5, 6, 6])]
    if workload == "map-adder46-ring4":
        # Three instances, so that the plan metrics average over three
        # annealing runs.
        return [_map_job(seed, f"adder46-{i}", 46, adder_gates(46), "ring",
                         [12, 12, 12, 12], iters=500) for i in range(1, 4)]
    if workload == "ablate-16":
        config = topology("line", [6, 6, 8],
                          random.Random(derive_seed(seed, "topology:line3")))
        qaoa = qaoa_gates(16, 2, random.Random(derive_seed(seed, "qaoa16")))
        return [
            Job(name=name, kind="ablate", n_qubits=16, gates=gates, config=config,
                run_seed=derive_seed(seed, f"run:{name}") % 2 ** 31)
            for name, gates in (("adder16", adder_gates(16)),
                                ("qft16", qft_gates(16)), ("qaoa16", qaoa))
        ]
    raise ValueError(f"unknown workload '{workload}'")


WORKLOADS = ("map-qft20-ring4", "map-adder46-ring4", "ablate-16")
