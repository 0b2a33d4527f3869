"""Cluster hardware model.

A cluster is a set of QPUs, each with a qubit coupling map and a compute
capacity, joined by weighted interconnect links through one global switch.
Distance tables are precomputed at load time: intra-QPU hop counts per
coupling map, with the per-QPU constants the cost model reads beside
them (the hub, the cumulative distance histogram and each physical qubit's
nearest-first order), all four from one breadth-first sweep per physical
qubit, then each QPU's linked QPUs, and for every QPU pair the
cheapest link path by total cost_factor (ties broken toward fewer hops,
then lower ids, so the path and its hop count are deterministic). Every
per-QPU table, and every row of a per-pair table, is a tuple indexed by the
1-based QPU id, index 0 unused, so readers index them in place. A
QuantumSwitch records one EPR replay of a plan (see anneal.replay_epr).
"""
from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass

from .errors import InfeasibleError, ValidationError
from .seeding import component_rng

Link = tuple[int, int]  # (a, b) with a < b, 1-based QPU ids


@dataclass(frozen=True)
class QPU:
    """One processor: id is its 1-based position in the cluster.
    comm_qubits is informational: validated and serialized, but read by no
    cost term and no EPR replay."""

    id: int
    name: str
    comp_capacity: int
    coupling: tuple[tuple[int, int], ...]
    comm_qubits: int = 1


@dataclass(frozen=True)
class QuantumSwitch:
    """EPR use of one plan on the cluster interconnect. per_link_epr holds
    the pairs consumed on each link, every link ascending, zeros kept;
    remote_ops counts the remote gates and teleports the qubit moves."""

    per_link_epr: dict[Link, int]
    remote_ops: int
    teleports: int


@dataclass(frozen=True)
class DistanceTables:
    """Precomputed distances, indexed by 1-based QPU id. Index 0 is unused:
    it holds () in a table of rows and 0 in hubs, and column 0 of a per-pair
    row holds 0.0, 0 or ().

    intra[p][i][j]: coupling-graph hops between physical qubits i, j of QPU p.
    inter_cost[p][q]: cheapest total cost_factor between QPUs p and q.
    inter_path[p][q]: the links of that path, in travel order; its length is
    the hop count.
    hubs[p]: the physical qubit of QPU p of highest coupling degree, lowest
    index on ties.
    ranks[p]: (cum, extra) over QPU p's physical pairs by coupling distance
    d = 0, 1, ..., diameter: cum[d] pairs lie at most d hops apart, and
    together they are extra[d] hops beyond adjacency. The lists grow with
    the diameter, not with the number of pairs.
    near[p][v]: QPU p's physical qubits ordered by (hops from v, index), v
    itself first.
    neighbors[p]: the QPUs linked to QPU p, ascending.
    _qpu_tables builds intra[p], hubs[p], ranks[p] and near[p] together.
    """

    intra: tuple[tuple[tuple[int, ...], ...], ...]
    inter_cost: tuple[tuple[float, ...], ...]
    inter_path: tuple[tuple[tuple[Link, ...], ...], ...]
    hubs: tuple[int, ...]
    ranks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    near: tuple[tuple[tuple[int, ...], ...], ...]
    neighbors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ClusterTopology:
    """Validated cluster: QPUs, links and distance tables. caps[p] is the
    comp_capacity of QPU p (caps[0] = 0, unused)."""

    qpus: tuple[QPU, ...]
    links: tuple[tuple[int, int, float], ...]  # (a, b, cost_factor), a < b
    distances: DistanceTables
    caps: tuple[int, ...]

    @property
    def n_qpus(self) -> int:
        return len(self.qpus)

    @property
    def total_capacity(self) -> int:
        return sum(self.caps)

    def qpu(self, pid: int) -> QPU:
        if not 1 <= pid <= len(self.qpus):
            raise ValueError(f"no QPU with id {pid}")
        return self.qpus[pid - 1]


def _qpu_tables(qpu: QPU) -> tuple:
    """(intra, hub, ranks, near) of one QPU (see DistanceTables), from one
    breadth-first sweep per physical qubit, level by level: each level's
    qubits, ascending, extend that start's near row, and the level sizes
    summed over every start count each pair twice for the ranks histogram.
    Every distance is an item of one shared list, so the rows hold no int
    objects of their own."""
    n = qpu.comp_capacity
    # A connected graph on n nodes has at least n - 1 edges; checking that
    # first bounds what is allocated here by the size of the input.
    if len(qpu.coupling) < n - 1:
        raise ValidationError(f"QPU '{qpu.name}': coupling graph is not connected")
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in qpu.coupling:
        adj[i].append(j)
        adj[j].append(i)
    depths = list(range(1, n))  # the int objects every row's distances share
    hist = [n] + [0] * n  # ordered pairs by hops; the diameter is below n
    intra, near = [], []
    for start in range(n):
        dist = [-1] * n
        dist[start] = 0
        level = [start]
        order = [start]
        for d in depths:
            nxt = []
            for u in level:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            if not nxt:
                break
            hist[d] += len(nxt)
            nxt.sort()
            order += nxt
            level = nxt
        if len(order) < n:
            raise ValidationError(f"QPU '{qpu.name}': coupling graph is not connected")
        intra.append(tuple(dist))
        near.append(tuple(order))
    cum, extra = [0], [0]
    for d in range(1, hist.index(0)):
        pairs = hist[d] // 2
        cum.append(cum[-1] + pairs)
        extra.append(extra[-1] + pairs * (d - 1))
    # coupling edges are distinct, so a list's length is the qubit's degree
    hub = max(range(n), key=lambda v: len(adj[v]))
    return tuple(intra), hub, (tuple(cum), tuple(extra)), tuple(near)


def _inter_tables(n_qpus: int, links: tuple[tuple[int, int, float], ...]) -> tuple:
    """(inter_cost, inter_path, neighbors), indexed by QPU id (see
    DistanceTables)."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n_qpus + 1)]
    for a, b, c in links:
        adj[a].append((b, c))
        adj[b].append((a, c))
    for row in adj:
        row.sort()
    cost: list[tuple[float, ...]] = [()]
    path: list[tuple[tuple[Link, ...], ...]] = [()]
    for src in range(1, n_qpus + 1):
        best: dict[int, tuple[float, int]] = {src: (0.0, 0)}
        parent: dict[int, int] = {}
        done: set[int] = set()
        heap: list[tuple[float, int, int]] = [(0.0, 0, src)]
        while heap:
            c, h, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                cand = (c + w, h + 1)
                if v not in best or cand < best[v]:
                    best[v] = cand
                    parent[v] = u
                    heapq.heappush(heap, (cand[0], cand[1], v))
        cost_row, path_row = [0.0], [()]
        for dst in range(1, n_qpus + 1):
            if dst not in best:
                raise ValidationError("interconnect graph is not connected")
            c = best[dst][0]
            if math.isinf(c):
                raise ValidationError(f"topology: the cheapest path from QPU {src} to "
                                      f"QPU {dst} costs more than a float can hold")
            cost_row.append(c)
            route: list[Link] = []
            node = dst
            while node != src:
                route.append((parent[node], node))
                node = parent[node]
            path_row.append(tuple(reversed(route)))
        cost.append(tuple(cost_row))
        path.append(tuple(path_row))
    neighbors = tuple(tuple(v for v, _ in row) for row in adj)
    return tuple(cost), tuple(path), neighbors


def _is_int(x) -> bool:
    """An integer that is not a bool: JSON true/false load as bool, an int
    subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


_QPU_FIELDS = {"name", "comp_capacity", "coupling", "comm_qubits"}
_LINK_FIELDS = {"a", "b", "cost_factor"}


def _check_fields(spec, what: str, fields: set[str]) -> None:
    """Raise ValidationError unless spec is a dict with exactly `fields`."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} must be an object")
    missing = fields - set(spec)
    if missing:
        raise ValidationError(f"{what}: missing fields {sorted(missing)}")
    extra = set(spec) - fields
    if extra:
        raise ValidationError(f"{what}: unknown fields {sorted(extra)}")


def build_cluster(
    qpu_specs: list[dict], link_specs: list[dict]
) -> ClusterTopology:
    """Assemble and validate a topology from plain dict specs, each with
    exactly the fields load_cluster documents."""
    for pos, spec in enumerate(qpu_specs, start=1):
        _check_fields(spec, f"qpu {pos}", _QPU_FIELDS)
    for pos, spec in enumerate(link_specs, start=1):
        _check_fields(spec, f"link {pos}", _LINK_FIELDS)
    if not qpu_specs:
        raise ValidationError("cluster needs at least one QPU")
    qpus = []
    names = set()
    for pos, spec in enumerate(qpu_specs, start=1):
        name = spec["name"]
        cap = spec["comp_capacity"]
        coupling = spec["coupling"]
        comm = spec["comm_qubits"]
        if not isinstance(name, str) or not name:
            raise ValidationError(f"qpu {pos}: name must be a nonempty string")
        if name in names:
            raise ValidationError(f"qpu {pos}: duplicate name '{name}'")
        names.add(name)
        if not _is_int(cap) or cap < 1:
            raise ValidationError(f"qpu '{name}': comp_capacity must be a positive integer")
        if not _is_int(comm) or comm < 1:
            raise ValidationError(f"qpu '{name}': comm_qubits must be a positive integer")
        if not isinstance(coupling, (list, tuple)):
            raise ValidationError(f"qpu '{name}': coupling must be an array of edges")
        edges = []
        for e in coupling:
            if (not isinstance(e, (list, tuple)) or len(e) != 2
                    or not all(_is_int(x) for x in e)):
                raise ValidationError(f"qpu '{name}': coupling edges must be integer pairs")
            i, j = e
            if i == j:
                raise ValidationError(f"qpu '{name}': self-loop in coupling map")
            if not (0 <= i < cap and 0 <= j < cap):
                raise ValidationError(f"qpu '{name}': coupling index out of range")
            edges.append((min(i, j), max(i, j)))
        qpus.append(QPU(
            id=pos, name=name, comp_capacity=cap,
            coupling=tuple(sorted(set(edges))), comm_qubits=comm,
        ))

    links: list[tuple[int, int, float]] = []
    seen: set[Link] = set()
    for spec in link_specs:
        a, b, c = spec["a"], spec["b"], spec["cost_factor"]
        if not _is_int(a) or not _is_int(b):
            raise ValidationError("link endpoints must be integer QPU ids")
        if not (1 <= a <= len(qpus) and 1 <= b <= len(qpus)):
            raise ValidationError(f"link ({a}, {b}) references an unknown QPU id")
        if a == b:
            raise ValidationError(f"link ({a}, {b}) is a self-loop")
        # NaN fails both comparisons; an int too large for a float fails the second
        if (not isinstance(c, (int, float)) or isinstance(c, bool)
                or not 0 < c <= sys.float_info.max):
            raise ValidationError(f"topology link ({a}, {b}): cost_factor must be "
                                  "finite and positive")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValidationError(f"duplicate link {key}")
        seen.add(key)
        links.append((key[0], key[1], float(c)))
    links.sort()

    intra, hubs, ranks, near = zip(*map(_qpu_tables, qpus))
    cost, path, neighbors = _inter_tables(len(qpus), tuple(links))
    return ClusterTopology(
        qpus=tuple(qpus),
        links=tuple(links),
        distances=DistanceTables(intra=((), *intra), inter_cost=cost, inter_path=path,
                                 hubs=(0, *hubs), ranks=((), *ranks), near=((), *near),
                                 neighbors=neighbors),
        caps=(0, *(p.comp_capacity for p in qpus)),
    )


def load_cluster(text: str) -> ClusterTopology:
    """Parse and validate a cluster config JSON document.

    Schema: {"qpus": [{"name", "comp_capacity", "coupling", "comm_qubits"}],
    "links": [{"a", "b", "cost_factor"}]} where a/b are 1-based positions in
    the qpus array. Unknown fields anywhere are rejected. cost_factor and
    every cheapest path cost must be finite and positive. comm_qubits is
    informational: no cost term and no EPR replay reads it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    extra = set(doc) - {"qpus", "links"}
    if extra:
        raise ValidationError(f"unknown config fields: {sorted(extra)}")
    if "qpus" not in doc or not isinstance(doc["qpus"], list):
        raise ValidationError("config needs a 'qpus' array")
    link_specs = doc.get("links", [])
    if not isinstance(link_specs, list):
        raise ValidationError("'links' must be an array")
    return build_cluster(doc["qpus"], link_specs)


def cluster_to_config(ct: ClusterTopology) -> dict:
    """Inverse of load_cluster, minus derived tables."""
    return {
        "qpus": [
            {
                "name": p.name,
                "comp_capacity": p.comp_capacity,
                "coupling": [list(e) for e in p.coupling],
                "comm_qubits": p.comm_qubits,
            }
            for p in ct.qpus
        ],
        "links": [
            {"a": a, "b": b, "cost_factor": c} for a, b, c in ct.links
        ],
    }


def serialize_cluster(ct: ClusterTopology) -> str:
    return json.dumps(cluster_to_config(ct), indent=2, sort_keys=True) + "\n"


# --- generation ---------------------------------------------------------------

def _coupling_line(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _coupling_ring(n: int) -> list[tuple[int, int]]:
    edges = _coupling_line(n)
    if n >= 3:
        edges.append((0, n - 1))
    return edges


def _coupling_grid(n: int) -> list[tuple[int, int]]:
    if n < 2:
        return []
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


def _coupling_hex(n: int) -> list[tuple[int, int]]:
    # Degree <= 3: a chain with sparse cross links, the shape heavy-hex
    # devices reduce to at small sizes.
    edges = _coupling_line(n)
    for i in range(0, n - 5, 10):
        edges.append((i, i + 5))
    return edges


_COUPLING_BUILDERS = {
    "line": _coupling_line,
    "ring": _coupling_ring,
    "grid": _coupling_grid,
    "heavy_hex_like": _coupling_hex,
}

TOPOLOGY_KINDS = tuple(_COUPLING_BUILDERS)


def gen_topology(kind: str, sizes: list[int], seed: int) -> ClusterTopology:
    """Generate a cluster: `kind` shapes the interconnect, `sizes` gives one
    comp_capacity per QPU. Internal coupling maps are drawn per QPU from the
    same shape family, link cost factors from U(0.5, 2.0), all from `seed`.
    """
    if kind not in _COUPLING_BUILDERS:
        raise ValueError(f"unknown topology kind '{kind}'")
    if not sizes:
        raise ValueError("sizes must be nonempty")
    for s in sizes:
        if not isinstance(s, int) or s < 2:
            raise ValueError("every QPU size must be an integer >= 2")
    rng = component_rng(seed, f"topology:{kind}")
    styles = sorted(_COUPLING_BUILDERS)
    qpu_specs = []
    for pos, cap in enumerate(sizes, start=1):
        style = rng.choice(styles)
        qpu_specs.append({
            "name": f"qpu{pos}",
            "comp_capacity": cap,
            "coupling": [list(e) for e in _COUPLING_BUILDERS[style](cap)],
            "comm_qubits": max(1, cap // 8),
        })
    p = len(sizes)
    inter = _COUPLING_BUILDERS[kind](p)
    link_specs = []
    for a, b in sorted(set(inter)):
        link_specs.append({
            "a": a + 1,
            "b": b + 1,
            "cost_factor": round(rng.uniform(0.5, 2.0), 3),
        })
    if p > 1 and not link_specs:
        raise InfeasibleError("topology kind produced no links for multiple QPUs")
    return build_cluster(qpu_specs, link_specs)
