"""Shared builders, property-test instances, one-call cost forms and
reference oracles for the test suite, plus the acceptance summary hook."""
from __future__ import annotations

import math
import random
from collections import Counter, deque
from itertools import chain

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dqcmap.anneal import AnnealParams, Plan, anneal_segment, prepare
from dqcmap.circuit import Circuit, GateOp, LayeredCircuit
from dqcmap.cost import (
    CostBreakdown,
    CostParams,
    SegmentCostEvaluator,
    qpu_masks,
)
from dqcmap.errors import InfeasibleError, ValidationError
from dqcmap.hardware import (
    _COUPLING_BUILDERS,
    QPU,
    ClusterTopology,
    QuantumSwitch,
    build_cluster,
)
from dqcmap.placement import Assignment, InteractionGraph, random_placement
from dqcmap.segmentation import (
    Segment,
    SegmentationParams,
    _adjacency,
    _build_segments,
    default_params,
    jaccard,
)


# Every property test draws the same examples on every run and machine, so
# a defect it can catch is caught every time.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def line_coupling(k: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(k - 1)]


def full_coupling(k: int) -> list[list[int]]:
    return [[i, j] for i in range(k) for j in range(i + 1, k)]


def coupled_cluster(coupling: str, caps) -> ClusterTopology:
    """QPUs of the given capacities, each with the named coupling map
    (line, ring, grid, heavy_hex_like or complete), on a line interconnect
    with unequal cost factors."""
    qpus = [{"name": f"q{i}", "comp_capacity": c, "comm_qubits": 1,
             "coupling": (full_coupling(c) if coupling == "complete"
                          else [list(e) for e in _COUPLING_BUILDERS[coupling](c)])}
            for i, c in enumerate(caps)]
    links = [{"a": p, "b": p + 1, "cost_factor": 1.0 + 0.5 * p} for p in range(1, len(caps))]
    return build_cluster(qpus, links)


def two_qpu_line(cap_a: int, cap_b: int, cost_factor: float = 1.0) -> ClusterTopology:
    return build_cluster(
        [
            {"name": "a", "comp_capacity": cap_a,
             "coupling": line_coupling(cap_a), "comm_qubits": 1},
            {"name": "b", "comp_capacity": cap_b,
             "coupling": line_coupling(cap_b), "comm_qubits": 1},
        ],
        [{"a": 1, "b": 2, "cost_factor": cost_factor}],
    )


def triangle_cluster(caps=(6, 6, 8), cost_factors=(1.0, 2.0, 1.5)) -> ClusterTopology:
    """Three fully coupled QPUs on a triangle interconnect."""
    qpus = [
        {"name": f"qpu{i + 1}", "comp_capacity": c,
         "coupling": full_coupling(c), "comm_qubits": 1}
        for i, c in enumerate(caps)
    ]
    links = [
        {"a": 1, "b": 2, "cost_factor": cost_factors[0]},
        {"a": 1, "b": 3, "cost_factor": cost_factors[1]},
        {"a": 2, "b": 3, "cost_factor": cost_factors[2]},
    ]
    return build_cluster(qpus, links)


def cx_chain(n_qubits: int, pairs: list[tuple[int, int]], name: str = "chain") -> Circuit:
    gates = tuple(GateOp("cx", (a, b), ()) for a, b in pairs)
    return Circuit(n_qubits=n_qubits, gates=gates, name=name)


# -- random segment instances for property tests -----------------------------


def random_case(data, with_prev: bool, spare: int = 1):
    """(cluster, segment, assignment, previous assignment or None): 4-8
    qubits with random pair counts on three line-coupled QPUs of 2-4 qubits,
    grown until at least `spare` slots are free in total, on a line
    interconnect with one random cost factor."""
    n = data.draw(st.integers(min_value=4, max_value=8))
    caps = [data.draw(st.integers(min_value=2, max_value=4)) for _ in range(3)]
    while sum(caps) < n + spare:
        caps[caps.index(min(caps))] += 1
    ct = build_cluster(
        [{"name": f"p{i}", "comp_capacity": c,
          "coupling": line_coupling(c), "comm_qubits": 1}
         for i, c in enumerate(caps)],
        [{"a": 1, "b": 2, "cost_factor": 1.0},
         {"a": 2, "b": 3, "cost_factor": round(data.draw(
             st.floats(min_value=0.5, max_value=2.5)), 2)}],
    )
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                pairs[(i, j)] = data.draw(st.integers(min_value=1, max_value=4))
    seg = Segment(index=1, from_layer=1, to_layer=2, pairs=pairs)
    cur = random_placement(n, ct, seed=data.draw(st.integers(0, 10_000)))
    prev = (random_placement(n, ct, seed=data.draw(st.integers(0, 10_000)))
            if with_prev else None)
    return ct, seg, cur, prev


def cost_params(data) -> CostParams:
    """Fractional cost factors and weights, zero included; swap_cost is often 0."""
    price = st.floats(min_value=0.0, max_value=4.0).map(lambda x: round(x, 3))
    return CostParams(
        cx_cost=data.draw(price), swap_cost=data.draw(st.sampled_from([0.0, 0.7, 3.0]) | price),
        remote_op_cost=data.draw(price), teleport_cost=data.draw(price),
        gamma1=data.draw(price), gamma2=data.draw(price), gamma3=data.draw(price))


# -- one-call forms of the cost terms, each on a fresh evaluator -------------


def e_local(a: Assignment, seg: Segment, cluster: ClusterTopology, cp: CostParams) -> float:
    """Intra-QPU overhead of co-located interacting pairs."""
    return SegmentCostEvaluator(cluster, seg, cp).breakdown(a).e_local


def e_inter(a: Assignment, seg: Segment, cluster: ClusterTopology, cp: CostParams) -> float:
    """Remote-operation overhead of cut pairs."""
    return SegmentCostEvaluator(cluster, seg, cp).breakdown(a).e_inter


def e_move(prev: Assignment | None, cur: Assignment, cluster: ClusterTopology,
           cp: CostParams) -> float:
    """Teleportation charge for qubits whose QPU changed between segments."""
    if prev is None:
        return 0.0
    inter_cost = cluster.distances.inter_cost
    out = 0.0
    for q in range(len(cur.qpu_of)):
        if prev.qpu_of[q] != cur.qpu_of[q]:
            out += cp.teleport_cost * inter_cost[prev.qpu_of[q]][cur.qpu_of[q]]
    return out


def total(a: Assignment, seg: Segment, prev: Assignment | None,
          cluster: ClusterTopology, cp: CostParams) -> CostBreakdown:
    """Full objective with components and EPR count for one segment."""
    return SegmentCostEvaluator(cluster, seg, cp, prev=prev).breakdown(a)


def delta_total(ev: SegmentCostEvaluator, a: Assignment, moved) -> float:
    """Incremental objective change of the move with transfers `moved`
    applied to assignment `a`."""
    masks = qpu_masks(a.qpu_of, ev.cluster.n_qpus)
    return ev.delta(list(a.qpu_of), masks, ev.local_costs(masks), moved)


def _members(mask: int) -> list[int]:
    """Set bits of mask, ascending: qubit q is a member when bit q is set."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reference_greedy_layout(partners, table, hub: int) -> dict[int, int]:
    """Reference for cost._greedy_layout on qubit labels and dicts, as
    logical qubit -> physical qubit index.

    partners maps each qubit to place to its partners among them,
    ascending, as [(partner, count), ...]. Qubits are placed in order
    of decreasing interaction weight among the co-located set (ties toward
    lower qubit index). The first goes to `hub`; each later one to the free
    physical qubit minimizing the weighted coupling distance to its already
    placed partners (ties toward the lower physical index), scored over
    every physical qubit, or to the lowest free index when none is placed.
    """
    order = sorted(partners, key=lambda q: (-sum([c for _, c in partners[q]]), q))

    phys_of: dict[int, int] = {}
    free: list[int] = list(range(len(table)))
    for q in order:
        if not phys_of:
            pick = hub
        elif len(free) == 1:
            pick = free[0]
        else:
            # Score every physical qubit, one placed partner's distance row
            # at a time; min() keeps the lowest free index among ties.
            score = None
            for o, c in partners[q]:
                po = phys_of.get(o)
                if po is not None:
                    row = table[po]
                    score = ([c * d for d in row] if score is None
                             else [s + c * d for s, d in zip(score, row)])
            pick = free[0] if score is None else min(free, key=score.__getitem__)
        phys_of[q] = pick
        free.remove(pick)
    return phys_of


def _partners(mask: int, adj) -> dict[int, list[tuple[int, int]]]:
    """Each qubit of mask, ascending -> its partners within mask, ascending,
    as [(partner, count), ...], filtered from adj, the segment's adjacency
    (see _adjacency): the input reference_greedy_layout takes."""
    return {q: [(o, c) for o, c in adj.get(q, ()) if mask >> o & 1] for q in _members(mask)}


def full_layout_and_local(ev: SegmentCostEvaluator, pid: int, mask: int) -> tuple[float, int]:
    """Oracle for ev.layout_and_local: the local cost of mask under the
    greedy layout of every member built afresh, summed over the segment's
    pairs in ascending (i, j) order, and W, their summed gate count."""
    table = ev.cluster.distances.intra[pid]
    pairs = sorted(ev.seg.pairs.items())
    adj = _adjacency([(i, j, c) for (i, j), c in pairs])
    phys_of = reference_greedy_layout(_partners(mask, adj), table, ev.cluster.distances.hubs[pid])
    cp = ev.cp
    cost, weight = 0.0, 0
    for (i, j), c in pairs:
        if mask >> i & 1 and mask >> j & 1:
            d = table[phys_of[i]][phys_of[j]]
            cost += c * (cp.cx_cost + cp.swap_cost * max(0, d - 1))
            weight += c
    return cost, weight


# -- the annealer's move draw, by list scans ----------------------------------

def propose(qpu_of: list[int], caps: list[int], rng: random.Random):
    """Reference for anneal._draws: the transfers of one move drawn from the
    assignment qpu_of, with the same rng calls in the same order, or None
    where _draws stops. caps[p] is QPU p's capacity (index 0 unused). Slack
    is counted, and the qubits on other QPUs are listed, by scanning qpu_of."""
    n, n_qpus = len(qpu_of), len(caps) - 1
    if n_qpus < 2 or n < 1:
        return None
    if rng.random() < 0.5:
        q = rng.randrange(n)
        dests = [p for p in range(1, n_qpus + 1)
                 if p != qpu_of[q] and qpu_of.count(p) < caps[p]]
        if dests:
            return ((q, qpu_of[q], dests[rng.randrange(len(dests))]),)
    qa = rng.randrange(n)
    others = [q for q in range(n) if qpu_of[q] != qpu_of[qa]]
    if not others:
        return None
    qb = others[rng.randrange(len(others))]
    return ((qa, qpu_of[qa], qpu_of[qb]), (qb, qpu_of[qb], qpu_of[qa]))


def _nth_bit(mask: int, k: int) -> int:
    """Position of the k-th lowest set bit of mask (k from 0), by bisecting
    on the count of set bits at or below a position."""
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_draws(rng: random.Random, qpu_of: list[int], masks: list[int],
                    loads: list[int], caps: tuple[int, ...]):
    """Reference for anneal._draws that reads the assignment from qpu_of and
    each QPU's qubit mask, load and capacity (index 0 unused), afresh at each
    draw, with the same rng calls: a relocation's destinations are listed
    from the loads, and a swap's partner is the r-th set bit of the union of
    the other QPUs' masks."""
    n = len(qpu_of)
    if len(caps) < 3 or n < 1:
        return
    everyone = (1 << n) - 1
    qpus = range(1, len(caps))
    random_, getrandbits = rng.random, rng.getrandbits
    kn = n.bit_length()
    while True:
        if random_() < 0.5:
            q = getrandbits(kn)
            while q >= n:
                q = getrandbits(kn)
            p = qpu_of[q]
            dests = [d for d in qpus if d != p and loads[d] < caps[d]]
            if dests:
                m = len(dests)
                k = m.bit_length()
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                yield ((q, p, dests[r]),)
                continue
        qa = getrandbits(kn)
        while qa >= n:
            qa = getrandbits(kn)
        pa = qpu_of[qa]
        others = everyone ^ masks[pa]
        if not others:
            return
        m = others.bit_count()
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        qb = _nth_bit(others, r)
        pb = qpu_of[qb]
        yield ((qa, pa, pb), (qb, pb, pa))


def _scan_draw_lists(qpu_of: list[int], caps, outside: list, dests: list) -> None:
    """Fill outside and dests, as anneal._draws reads them, in place by
    scanning qpu_of: outside[p] the qubits not on QPU p, dests[p] the other
    QPUs with room, both ascending (index 0 unused)."""
    qpus = range(1, len(caps))
    outside[:] = [[]] + [[q for q, on in enumerate(qpu_of) if on != p] for p in qpus]
    dests[:] = [[]] + [[d for d in qpus if d != p and qpu_of.count(d) < caps[d]]
                       for p in qpus]


def chain_lists(a: Assignment, cluster: ClusterTopology):
    """The lists of an annealing chain at assignment a: qpu_of, and each
    QPU's qubit mask, load and capacity, outside list and destinations,
    indexed by QPU id (index 0 unused). anneal._draws reads qpu_of, outside
    and dests; reference_draws reads qpu_of, masks, loads and caps."""
    qpu_of = list(a.qpu_of)
    masks = qpu_masks(qpu_of, cluster.n_qpus)
    outside: list = []
    dests: list = []
    _scan_draw_lists(qpu_of, cluster.caps, outside, dests)
    return qpu_of, masks, [m.bit_count() for m in masks], cluster.caps, outside, dests


def apply_moved(moved, qpu_of: list[int], masks: list[int], loads: list[int],
                caps, outside: list, dests: list) -> None:
    """Apply a move's transfers to the lists of chain_lists, in place."""
    for q, frm, to in moved:
        masks[frm] ^= 1 << q
        masks[to] ^= 1 << q
        loads[frm] -= 1
        loads[to] += 1
        qpu_of[q] = to
    _scan_draw_lists(qpu_of, caps, outside, dests)


def traced_temperatures(t0: float, rate: float, iters: int) -> list[float]:
    """The temperature of each step of an annealing chain under t0 and rate,
    read from its trace. Two full QPUs always admit a swap, so every one of
    the iters steps draws a move."""
    seg = Segment(index=1, from_layer=1, to_layer=2, pairs={(0, 2): 1})
    ev = SegmentCostEvaluator(two_qpu_line(2, 2), seg, CostParams())
    trace = []
    anneal_segment(Assignment((1, 1, 2, 2)), ev,
                   AnnealParams(t0=t0, cooling_rate=rate, iters_per_segment=iters), trace=trace)
    return [e.temperature for e in trace]


# -- the annealer's acceptance rule, as a formula -----------------------------

def accept_probability(delta_e: float, temperature: float) -> float:
    """1 for downhill or flat moves, exp(-dE/T) uphill."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if delta_e <= 0:
        return 1.0
    return math.exp(-delta_e / temperature)


# -- graph and EPR reads, one call per pair, gate and hop -------------------

def pair_weight(g: InteractionGraph, i: int, j: int) -> float:
    """The weight of edge {i, j} of g: 0.0 when it is absent or i == j."""
    return 0.0 if i == j else g.weights.get((min(i, j), max(i, j)), 0.0)


def reference_replay(plan: Plan, cluster: ClusterTopology) -> QuantumSwitch:
    """anneal.replay_epr as a ledger: one call per moved qubit and one per
    remote gate, each consuming one pair on every link of its travel-order
    path, looked up as (min, max)."""
    per_link = {(a, b): 0 for a, b, _ in cluster.links}
    calls = {"remote": 0, "teleport": 0}

    def consume(path, kind: str) -> None:
        if not path:
            raise ValueError("empty link path")
        for a, b in path:
            key = (min(a, b), max(a, b))
            if key not in per_link:
                raise ValueError(f"unknown link {key}")
            per_link[key] += 1
        calls[kind] += 1

    paths = cluster.distances.inter_path
    prev = None
    for step in plan.steps:
        qo = step.assignment.qpu_of
        if prev is not None:
            for q in range(len(qo)):
                if prev[q] != qo[q]:
                    consume(paths[prev[q]][qo[q]], "teleport")
        for (i, j), count in step.segment.pairs.items():
            if qo[i] != qo[j]:
                for _ in range(count):
                    consume(paths[qo[i]][qo[j]], "remote")
        prev = qo
    return QuantumSwitch(per_link, calls["remote"], calls["teleport"])


# -- per-QPU load-time tables, one pass per table --------------------------

def _bfs_hops(n: int, adj: dict[int, list[int]], start: int) -> list[int]:
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_qpu_tables(qpu: QPU):
    """(intra, hub, ranks, near) of one QPU, as DistanceTables holds them at
    index qpu.id, each from its own pass: one BFS per physical qubit for the
    distance rows, the hub from a degree count, ranks from a Counter over
    every entry of the rows, and near from a stable sort of each row. Raises
    ValidationError as build_cluster does for a disconnected coupling."""
    n = qpu.comp_capacity
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in qpu.coupling:
        adj[i].append(j)
        adj[j].append(i)
    for i in adj:
        adj[i].sort()
    rows = []
    for start in range(n):
        dist = _bfs_hops(n, adj, start)
        if -1 in dist:
            raise ValidationError(f"QPU '{qpu.name}': coupling graph is not connected")
        rows.append(tuple(dist))
    intra = tuple(rows)

    degree = [0] * n
    for i, j in qpu.coupling:
        degree[i] += 1
        degree[j] += 1
    hub = max(range(n), key=degree.__getitem__)

    hist = Counter(chain.from_iterable(intra))  # each pair twice; d = 0 on the diagonal
    cum, extra = [0], [0]
    for d in range(1, max(hist) + 1):
        pairs = hist[d] // 2
        cum.append(cum[-1] + pairs)
        extra.append(extra[-1] + pairs * (d - 1))

    idx = list(range(n))
    near = tuple(tuple(sorted(idx, key=row.__getitem__)) for row in intra)
    return intra, hub, (tuple(cum), tuple(extra)), near


# -- exhaustive reference -----------------------------------------------------

def _feasible_assignments(n_qubits: int, caps: list[int]) -> list[tuple[int, ...]]:
    """All capacity-feasible qubit->QPU tuples, lexicographic order."""
    out = []
    state = [0] * n_qubits

    def rec(q: int, loads: list[int]):
        if q == n_qubits:
            out.append(tuple(state))
            return
        for p in range(len(caps)):
            if loads[p] < caps[p]:
                loads[p] += 1
                state[q] = p + 1
                rec(q + 1, loads)
                loads[p] -= 1

    rec(0, [0] * len(caps))
    return out


def brute_force_optimum(
    circuit: Circuit,
    cluster: ClusterTopology,
    cp: CostParams,
    seg_params: SegmentationParams | None = None,
    segments: list[Segment] | None = None,
) -> tuple[list[Assignment], float]:
    """Exact minimum of the chained per-segment objective by enumeration.

    Dynamic program over all capacity-feasible assignments per segment with
    the movement charge linking stages. Refuses instances beyond 10 qubits or
    3 QPUs.
    """
    if circuit.n_qubits > 10 or cluster.n_qpus > 3:
        raise ValueError("instance too large for exhaustive search")
    if cluster.total_capacity < circuit.n_qubits:
        raise InfeasibleError("circuit does not fit the cluster")
    if segments is None:
        segments = prepare(circuit, seg_params).segments
    if not segments:
        return [], 0.0

    states = _feasible_assignments(circuit.n_qubits, cluster.caps[1:])
    inter_cost = cluster.distances.inter_cost
    tele = cp.teleport_cost
    g3 = cp.gamma3

    def stage_cost(seg_: Segment) -> list[float]:
        ev = SegmentCostEvaluator(cluster, seg_, cp, prev=None)
        return [ev.breakdown(Assignment(s)).e_total for s in states]

    costs = stage_cost(segments[0])
    back: list[list[int]] = []
    for seg_ in segments[1:]:
        stage = stage_cost(seg_)
        nxt = [0.0] * len(states)
        arg = [0] * len(states)
        for bi, b in enumerate(states):
            best_val, best_ai = math.inf, 0
            for ai, a in enumerate(states):
                mv = costs[ai]
                if mv >= best_val:
                    continue
                hop = 0.0
                for q in range(len(a)):
                    if a[q] != b[q]:
                        hop += inter_cost[a[q]][b[q]]
                val = mv + g3 * tele * hop
                if val < best_val:
                    best_val, best_ai = val, ai
            nxt[bi] = stage[bi] + best_val
            arg[bi] = best_ai
        costs = nxt
        back.append(arg)

    best_idx = min(range(len(states)), key=lambda i: (costs[i], i))
    best_total = costs[best_idx]
    chain = [best_idx]
    for arg in reversed(back):
        chain.append(arg[chain[-1]])
    chain.reverse()
    return [Assignment(states[idx]) for idx in chain], best_total


# -- looped forms of the segmentation measures --------------------------------

def count_interactions(lc: LayeredCircuit, from_layer: int,
                       to_layer: int) -> dict[tuple[int, int], int]:
    """Two-qubit gate counts of the gates whose layer falls in
    [from_layer, to_layer], by one scan of the whole gate list: (i, j) with
    i < j -> count, in the order of each pair's first gate there."""
    if not (1 <= from_layer <= to_layer <= lc.depth):
        raise ValueError(
            f"layer interval [{from_layer}, {to_layer}] out of range for depth {lc.depth}"
        )
    pairs: dict[tuple[int, int], int] = {}
    for idx, g in enumerate(lc.circuit.gates):
        if not g.is_two_qubit:
            continue
        lay = lc.layer_of[idx]
        if from_layer <= lay <= to_layer:
            a, b = g.qubits
            key = (a, b) if a < b else (b, a)
            pairs[key] = pairs.get(key, 0) + 1
    return pairs


def density(lc: LayeredCircuit, q: int, l: int) -> float:
    """Cumulative interaction density of qubit q through layer l."""
    if not 0 <= q < lc.n_qubits:
        raise ValueError(f"qubit {q} out of range")
    if not 1 <= l <= lc.depth:
        raise ValueError(f"layer {l} out of range for depth {lc.depth}")
    hits = 0
    for idx, g in enumerate(lc.circuit.gates):
        if g.is_two_qubit and q in g.qubits and lc.layer_of[idx] <= l:
            hits += 1
    return hits / l


def windowed_density(lc: LayeredCircuit, q: int, l: int, w: int) -> float:
    """Mean of density(q, i) over i in [max(1, l-w), min(depth, l+w)].

    The mean runs over the layers actually inside the circuit, so edge
    windows are not diluted by missing terms.
    """
    if w < 1:
        raise ValueError("window must be >= 1")
    if not 1 <= l <= lc.depth:
        raise ValueError(f"layer {l} out of range for depth {lc.depth}")
    lo = max(1, l - w)
    hi = min(lc.depth, l + w)
    return sum(density(lc, q, i) for i in range(lo, hi + 1)) / (hi - lo + 1)


def top_k_set(lc: LayeredCircuit, l: int, params: SegmentationParams) -> frozenset[int]:
    """The k most active qubits at layer l; density ties go to lower indices."""
    if params.top_k > lc.n_qubits:
        raise ValueError("top_k exceeds qubit count")
    if not 1 <= l <= lc.depth:
        raise ValueError(f"layer {l} out of range for depth {lc.depth}")
    scores = [(-windowed_density(lc, q, l, params.window), q) for q in range(lc.n_qubits)]
    scores.sort()
    return frozenset(q for _, q in scores[: params.top_k])


def reference_segment(lc: LayeredCircuit,
                      params: SegmentationParams | None = None) -> list[Segment]:
    """segment as it was with a full qubit-by-layer matrix: wd[q][l] is the
    mean of rho(q, i) over the window of layer l, from each row's prefix
    sums of rho, and each layer's top-k set is ranked from one column. Its
    floats are summed in segment's order, so it pins the scores bit for bit,
    which windowed_density, summed in another order, cannot."""
    if lc.depth == 0:
        return []
    if params is None:
        params = default_params(lc)
    if params.top_k > lc.n_qubits:
        raise ValueError("top_k exceeds qubit count")
    depth, w = lc.depth, params.window
    # Layer l's window as (hi, lo - 1), the same for every qubit.
    windows = [(min(depth, l + w), max(1, l - w) - 1) for l in range(1, depth + 1)]
    wd = [[0] * (depth + 1) for _ in range(lc.n_qubits)]
    for g, lay in zip(lc.circuit.gates, lc.layer_of):
        if g.is_two_qubit:
            for q in g.qubits:
                wd[q][lay] += 1
    for q, row in enumerate(wd):
        cum, pref = 0, 0.0
        for l in range(1, depth + 1):
            cum += row[l]
            pref += cum / l
            row[l] = pref
        wd[q] = [0.0] + [(row[hi] - row[lo]) / (hi - lo) for hi, lo in windows]
    qubits = range(lc.n_qubits)

    def active(l: int) -> frozenset[int]:
        col = [row[l] for row in wd]
        return frozenset(sorted(qubits, key=col.__getitem__, reverse=True)[:params.top_k])

    starts = [1]
    prev_set = active(1)
    for l in range(2, depth + 1):
        cur = active(l)
        if jaccard(cur, prev_set) < params.threshold and l - starts[-1] >= w:
            starts.append(l)
        prev_set = cur
    return _build_segments(lc, starts)


# -- acceptance criteria reporting ------------------------------------------


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line per acceptance criterion for the summary."""

    def record(criterion: int, passed: bool, detail: str) -> None:
        request.config._acceptance_lines.append((criterion, passed, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = sorted(getattr(config, "_acceptance_lines", []))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in lines:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {criterion}: {verdict} - {detail}")
