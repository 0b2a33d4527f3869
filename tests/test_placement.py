"""Decayed interaction graph, clustering placement, repair, random baseline."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcmap import placement
from dqcmap.errors import InfeasibleError
from dqcmap.hardware import build_cluster
from dqcmap.placement import (
    Assignment,
    InteractionGraph,
    _refine_cut,
    build_graph,
    cluster_graph,
    default_decay,
    edge_cut,
    random_placement,
    repair_capacity,
)
from dqcmap.segmentation import Segment

from conftest import _feasible_assignments, line_coupling, pair_weight, two_qpu_line


def seg_with(index: int, pairs: dict) -> Segment:
    return Segment(index=index, from_layer=2 * index - 1, to_layer=2 * index,
                   pairs=dict(pairs))


class TestBuildGraph:
    def test_decayed_hand_value(self):
        segs = [seg_with(1, {(0, 1): 2}), seg_with(2, {(0, 1): 3})]
        g = build_graph(segs, math.log(2), 2)
        # 2 * exp(-ln2 * 1) + 3 * exp(-ln2 * 2) = 1 + 0.75
        assert pair_weight(g, 0, 1) == pytest.approx(1.75, rel=1e-9)

    def test_zero_decay_sums_counts(self):
        segs = [seg_with(1, {(0, 1): 2}), seg_with(2, {(0, 1): 3})]
        g = build_graph(segs, 0.0, 2)
        assert pair_weight(g, 0, 1) == pytest.approx(5.0)

    def test_silent_pair_has_no_edge(self):
        g = build_graph([seg_with(1, {(0, 1): 1})], 0.5, 3)
        assert g.n_qubits == 3  # qubit 2 has no gate and is still a vertex
        assert (0, 2) not in g.weights
        assert pair_weight(g, 0, 2) == 0.0

    def test_monotone_in_counts(self):
        lo = build_graph([seg_with(1, {(0, 1): 1}), seg_with(2, {(0, 1): 4})], 0.7, 2)
        hi = build_graph([seg_with(1, {(0, 1): 2}), seg_with(2, {(0, 1): 4})], 0.7, 2)
        assert pair_weight(hi, 0, 1) > pair_weight(lo, 0, 1)

    def test_default_decay(self):
        assert default_decay(6) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            default_decay(0)


class TestGraphChecks:
    @pytest.mark.parametrize("w", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_weight_must_be_finite_and_non_negative(self, w):
        # A NaN weight used to make cluster_graph loop forever.
        with pytest.raises(ValueError, match="finite"):
            InteractionGraph(4, {(0, 1): w})

    @pytest.mark.parametrize("pair", [(0, 7), (1, 0), (2, 2), (-1, 2)],
                             ids=["out-of-range", "reversed", "self-loop", "negative"])
    def test_key_must_be_ordered_pair_of_qubits(self, pair):
        with pytest.raises(ValueError, match="0 <= i < j < 4"):
            InteractionGraph(4, {pair: 1.0})

    def test_zero_weight_and_empty_accepted(self):
        assert pair_weight(InteractionGraph(3, {(0, 2): 0.0}), 2, 0) == 0.0
        assert InteractionGraph(0, {}).adjacency() == []

    @pytest.mark.parametrize("qpu_of", [(1, 1, 2), (1,)], ids=["longer", "shorter"])
    def test_repair_needs_matching_qubit_count(self, qpu_of):
        with pytest.raises(ValueError, match="qubit count"):
            repair_capacity(Assignment(qpu_of), InteractionGraph(2, {}), two_qpu_line(2, 2))


# Weights drawn from this list sum exactly in any order, and tie often.
DYADIC = [0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0]


def dyadic_graph(data, n: int) -> InteractionGraph:
    """A graph on n qubits with DYADIC weights: some 0.0 weights are stored,
    and the qubits past a drawn n_graph have no edges."""
    n_graph = data.draw(st.integers(1, n))
    weights = {}
    for i, j in combinations(range(n_graph), 2):
        w = data.draw(st.sampled_from(DYADIC))
        if w or data.draw(st.booleans()):
            weights[(i, j)] = w
    return InteractionGraph(n, weights)


def brute_cut(g: InteractionGraph, qpu_of) -> float:
    return sum(w for (i, j), w in g.weights.items() if qpu_of[i] != qpu_of[j])


class TestEdgeCut:
    def test_single_qpu_is_zero(self):
        g = InteractionGraph(3, {(0, 1): 2.0, (1, 2): 1.0})
        assert edge_cut(g, Assignment((1, 1, 1))) == 0.0

    def test_single_split_edge(self):
        g = InteractionGraph(2, {(0, 1): 5.0})
        assert edge_cut(g, Assignment((1, 2))) == 5.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_scan(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10))
        weights = {}
        for i in range(n):
            for j in range(i + 1, n):
                if data.draw(st.booleans()):
                    weights[(i, j)] = data.draw(
                        st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        g = InteractionGraph(n, weights)
        qpu_of = tuple(data.draw(st.integers(min_value=1, max_value=3))
                       for _ in range(n))
        assert edge_cut(g, Assignment(qpu_of)) == pytest.approx(
            brute_cut(g, qpu_of))


class TestClusterGraph:
    def test_separates_cliques(self):
        g = InteractionGraph(4, {(0, 1): 10.0, (2, 3): 10.0, (1, 2): 1.0})
        ct = two_qpu_line(2, 2)
        a = cluster_graph(g, ct, 2)
        assert edge_cut(g, a) == pytest.approx(1.0)
        assert a.qpu_of[0] == a.qpu_of[1]
        assert a.qpu_of[2] == a.qpu_of[3]
        # exhaustive: no feasible split does better
        best = min(
            brute_cut(g, assign)
            for assign in itertools.product((1, 2), repeat=4)
            if assign.count(1) <= 2 and assign.count(2) <= 2
        )
        assert best == pytest.approx(1.0)

    def test_single_partition(self):
        g = InteractionGraph(3, {(0, 1): 1.0})
        ct = two_qpu_line(4, 4)
        a = cluster_graph(g, ct, 1)
        assert len(set(a.qpu_of)) == 1
        assert edge_cut(g, a) == 0.0

    def test_empty_graph_feasible(self):
        g = InteractionGraph(4, {})
        ct = two_qpu_line(2, 2)
        a = cluster_graph(g, ct, 2)
        assert a.qpu_of.count(1) == a.qpu_of.count(2) == 2

    def test_deterministic(self):
        rng = random.Random(5)
        weights = {(i, j): round(rng.uniform(0.1, 2.0), 2)
                   for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.6}
        g = InteractionGraph(6, weights)
        ct = two_qpu_line(3, 3)
        assert cluster_graph(g, ct, 2) == cluster_graph(g, ct, 2)

    def test_infeasible_capacity_rejected(self):
        g = InteractionGraph(5, {})
        ct = two_qpu_line(2, 2)
        with pytest.raises(InfeasibleError):
            cluster_graph(g, ct, 2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_scan_reference(self, data):
        # Small capacities and fewer partitions than QPUs force merges past
        # cap_max, and repair then evicts.
        caps = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        n = data.draw(st.integers(1, sum(caps)))
        partitions = data.draw(st.integers(1, len(caps)))
        g = dyadic_graph(data, n)
        cluster = line_cluster(caps)
        assert (cluster_graph(g, cluster, partitions)
                == reference_cluster_graph(g, cluster, partitions))
        # The merge alone: the polish and the repair could hide a different
        # grouping.
        with patch.object(placement, "_refine_cut", lambda g, a, cluster, chosen: a), \
                patch.object(placement, "repair_capacity", lambda a, g, cluster: a):
            assert (cluster_graph(g, cluster, partitions)
                    == reference_cluster_graph(g, cluster, partitions))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sparse_graph_matches_pairwise_scan_reference(self, data):
        # A few edges among many idle qubits: most rounds find no positive
        # pair that fits and merge the two smallest groups, fitting or not.
        caps = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        n = data.draw(st.integers(1, sum(caps)))
        partitions = data.draw(st.integers(1, len(caps)))
        pairs = list(combinations(range(n), 2))
        picked = data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
        g = InteractionGraph(n, {pair: data.draw(st.sampled_from(DYADIC)) for pair in picked})
        cluster = line_cluster(caps)
        assert (cluster_graph(g, cluster, partitions)
                == reference_cluster_graph(g, cluster, partitions))
        with patch.object(placement, "_refine_cut", lambda g, a, cluster, chosen: a), \
                patch.object(placement, "repair_capacity", lambda a, g, cluster: a):
            assert (cluster_graph(g, cluster, partitions)
                    == reference_cluster_graph(g, cluster, partitions))

    def test_quality_against_exhaustive_optimum(self):
        # heuristic bound: within 25% of the balanced optimum on >= 90%
        # of 50 random instances (P=2, n <= 12)
        rng = random.Random(424242)
        ok = 0
        for _ in range(50):
            n = rng.randint(8, 12)
            weights = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        weights[(i, j)] = round(rng.uniform(0.1, 3.0), 3)
            g = InteractionGraph(n, weights)
            cap = (n + 1) // 2
            ct = two_qpu_line(cap, cap)
            a = cluster_graph(g, ct, 2)
            cut = edge_cut(g, a)
            best = min(
                brute_cut(g, assign)
                for assign in itertools.product((1, 2), repeat=n)
                if assign.count(1) <= cap and assign.count(2) <= cap
            )
            if cut <= 1.25 * best + 1e-12:
                ok += 1
        assert ok >= 45, f"only {ok}/50 within 25% of optimum"


def reference_cluster_graph(g: InteractionGraph, cluster, partitions: int) -> Assignment:
    """Reference for cluster_graph: every round scans all group pairs and
    keeps the running best fitting pair and the running best forced pair."""
    n = g.n_qubits
    if n < 1:
        raise ValueError("nothing to place")
    if not 1 <= partitions <= cluster.n_qpus:
        raise ValueError("partitions out of range")
    placement.check_fits(n, cluster)
    chosen = placement._chosen_qpus(cluster, partitions)
    cap_max = max(cluster.qpu(p).comp_capacity for p in chosen)
    target = min(partitions, n)

    groups: dict[int, set[int]] = {q: {q} for q in range(n)}
    # Inter-group weights keyed by (gid_a, gid_b), gid = smallest member.
    gw: dict[tuple[int, int], float] = dict(g.weights)

    def merge(a: int, b: int) -> None:
        a, b = (a, b) if a < b else (b, a)
        groups[a] |= groups.pop(b)
        for other in list(groups):
            if other in (a, b):
                continue
            moved = gw.pop((min(b, other), max(b, other)), 0.0)
            if moved:
                key = (min(a, other), max(a, other))
                gw[key] = gw.get(key, 0.0) + moved
        gw.pop((a, b), None)

    while len(groups) > target:
        best: tuple[int, int] | None = None
        best_w = -1.0
        best_size = 0
        forced: tuple[int, int] | None = None
        forced_key: tuple[float, int, int, int] | None = None
        ids = sorted(groups)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                w = gw.get((a, b), 0.0)
                size = len(groups[a]) + len(groups[b])
                if size <= cap_max:
                    if w > best_w or (w == best_w and best is not None and size < best_size):
                        best, best_w, best_size = (a, b), w, size
                else:
                    fk = (-w, size, a, b)
                    if forced_key is None or fk < forced_key:
                        forced, forced_key = (a, b), fk
        if best is not None:
            merge(*best)
        else:
            merge(*forced)

    ordered = sorted(groups.values(), key=lambda s: (-len(s), min(s)))
    qpu_of = [0] * n
    for grp, pid in zip(ordered, chosen):
        for q in grp:
            qpu_of[q] = pid

    a = Assignment(tuple(qpu_of))
    a = placement._refine_cut(g, a, cluster, chosen)
    return placement.repair_capacity(a, g, cluster)


def reference_refine_cut(
    g: InteractionGraph, a: Assignment, cluster, chosen: list[int]
) -> Assignment:
    """Reference for _refine_cut: the same Kernighan-Lin polish with both
    relocate gains recomputed for every (qa, qb) pair of a step."""
    qpu_of = list(a.qpu_of)
    caps = {p: cluster.qpu(p).comp_capacity for p in chosen}
    adj = g.adjacency()

    def gain_relocate(cur: list[int], q: int, dst: int) -> float:
        src = cur[q]
        delta = 0.0
        for o, w in adj[q]:
            if cur[o] == src:
                delta -= w
            elif cur[o] == dst:
                delta += w
        return delta

    def kl_pass(pa: int, pb: int) -> bool:
        cur = list(qpu_of)
        locked: set[int] = set()
        seq: list[tuple[float, int, int]] = []
        cum = 0.0
        while True:
            best = None
            for qa in range(len(cur)):
                if qa in locked or cur[qa] != pa:
                    continue
                for qb in range(len(cur)):
                    if qb in locked or cur[qb] != pb:
                        continue
                    gain = (
                        gain_relocate(cur, qa, pb)
                        + gain_relocate(cur, qb, pa)
                        - 2.0 * pair_weight(g, qa, qb)
                    )
                    if best is None or gain > best[0] + 1e-15:
                        best = (gain, qa, qb)
            if best is None:
                break
            gain, qa, qb = best
            cur[qa], cur[qb] = pb, pa
            locked.add(qa)
            locked.add(qb)
            cum += gain
            seq.append((cum, qa, qb))
        if not seq:
            return False
        k = max(range(len(seq)), key=lambda i: seq[i][0])
        if seq[k][0] <= 1e-12:
            return False
        for i in range(k + 1):
            _, qa, qb = seq[i]
            qpu_of[qa], qpu_of[qb] = pb, pa
        return True

    for _ in range(4):
        changed = False
        for pa, pb in combinations(sorted(chosen), 2):
            while kl_pass(pa, pb):
                changed = True
        while True:
            loads = {p: 0 for p in chosen}
            for p in qpu_of:
                loads[p] += 1
            best = None
            for q in range(len(qpu_of)):
                for dst in chosen:
                    if dst == qpu_of[q] or loads[dst] >= caps[dst]:
                        continue
                    gain = gain_relocate(qpu_of, q, dst)
                    if gain > 1e-12 and (best is None or gain > best[0]):
                        best = (gain, q, dst)
            if best is None:
                break
            qpu_of[best[1]] = best[2]
            changed = True
        if not changed:
            break
    return Assignment(tuple(qpu_of))


class TestRefineCut:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_gain_reference(self, data):
        # Weights from a short list, so gains tie; the qubits past n_graph
        # have no edges.
        caps = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
        n = data.draw(st.integers(2, sum(caps)))
        n_graph = data.draw(st.integers(1, n))
        weights = {}
        for i, j in itertools.combinations(range(n_graph), 2):
            w = data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 0.1]))
            if w:
                weights[(i, j)] = w
        g = InteractionGraph(n, weights)
        slots = [p for p, c in enumerate(caps, 1) for _ in range(c)]
        qpu_of = tuple(data.draw(st.permutations(slots))[:n])
        cluster = line_cluster(caps)
        chosen = list(range(1, len(caps) + 1))
        got = _refine_cut(g, Assignment(qpu_of), cluster, chosen)
        assert got.qpu_of == reference_refine_cut(g, Assignment(qpu_of), cluster, chosen).qpu_of


class TestRepairCapacity:
    def test_identity_when_feasible(self):
        g = InteractionGraph(4, {(0, 1): 1.0})
        ct = two_qpu_line(2, 2)
        a = Assignment((1, 1, 2, 2))
        assert repair_capacity(a, g, ct) == a

    def test_weakest_qubit_evicted(self):
        # QPU1 over by one; q2 has no internal attachment and must move
        g = InteractionGraph(3, {(0, 1): 5.0})
        ct = two_qpu_line(2, 3)
        a = Assignment((1, 1, 1))
        fixed = repair_capacity(a, g, ct)
        assert fixed.qpu_of == (1, 1, 2)

    def test_two_evictions_on_line_cluster(self):
        # interconnect 1-2-3; QPU1 holds q0..q3, over by two. Eviction order
        # is ascending internal weight: q3 (0.0) then q2 (2.0). q3 takes the
        # hop-1 slot on QPU2, filling it; q2 must widen to QPU3.
        g = InteractionGraph(6, {(0, 1): 5.0, (0, 2): 2.0, (4, 5): 1.0})
        ct = build_cluster(
            [{"name": "a", "comp_capacity": 2, "coupling": [[0, 1]], "comm_qubits": 1},
             {"name": "b", "comp_capacity": 2, "coupling": [[0, 1]], "comm_qubits": 1},
             {"name": "c", "comp_capacity": 2, "coupling": [[0, 1]], "comm_qubits": 1}],
            [{"a": 1, "b": 2, "cost_factor": 1.0},
             {"a": 2, "b": 3, "cost_factor": 1.0}],
        )
        a = Assignment((1, 1, 1, 1, 2, 3))
        fixed = repair_capacity(a, g, ct)
        assert fixed.qpu_of == (1, 1, 3, 2, 2, 3)

    def test_insufficient_total_capacity(self):
        g = InteractionGraph(5, {})
        ct = two_qpu_line(2, 2)
        with pytest.raises(InfeasibleError):
            repair_capacity(Assignment((1, 1, 1, 1, 1)), g, ct)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_always_feasible_and_complete(self, data):
        n = data.draw(st.integers(min_value=3, max_value=10))
        caps = [data.draw(st.integers(min_value=1, max_value=4)) for _ in range(3)]
        if sum(caps) < n:
            caps[0] += n - sum(caps)
        ct = build_cluster(
            [{"name": f"p{i}", "comp_capacity": c,
              "coupling": line_coupling(c), "comm_qubits": 1}
             for i, c in enumerate(caps)],
            [{"a": 1, "b": 2, "cost_factor": 1.0},
             {"a": 2, "b": 3, "cost_factor": 1.0}],
        )
        weights = {}
        for i in range(n):
            for j in range(i + 1, n):
                if data.draw(st.booleans()):
                    weights[(i, j)] = data.draw(
                        st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
        g = InteractionGraph(n, weights)
        qpu_of = tuple(data.draw(st.integers(min_value=1, max_value=3))
                       for _ in range(n))
        fixed = repair_capacity(Assignment(qpu_of), g, ct)
        assert len(fixed.qpu_of) == n
        for p in ct.qpus:
            assert fixed.qpu_of.count(p.id) <= p.comp_capacity


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_edge_scan_reference(self, data):
        caps = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
        n = data.draw(st.integers(1, sum(caps)))
        g = dyadic_graph(data, n)
        qpu_of = tuple(data.draw(st.integers(1, len(caps))) for _ in range(n))
        cluster = line_cluster(caps)
        assert (repair_capacity(Assignment(qpu_of), g, cluster)
                == reference_repair_capacity(Assignment(qpu_of), g, cluster))


def reference_repair_capacity(a: Assignment, g: InteractionGraph, cluster) -> Assignment:
    """Reference for repair_capacity: a qubit's attraction to a QPU scans
    every edge of the graph."""
    qpu_of = list(a.qpu_of)
    caps = [p.comp_capacity for p in cluster.qpus]
    loads = [0] * cluster.n_qpus
    for p in qpu_of:
        loads[p - 1] += 1

    def attraction(q: int, pid: int) -> float:
        return sum(
            w for (i, j), w in g.weights.items()
            if (i == q and qpu_of[j] == pid) or (j == q and qpu_of[i] == pid)
        )

    def slack_ring(src: int) -> list[int]:
        dist = {src: 0}
        queue = [src]
        for u in queue:
            for v in sorted({b if a == u else a for a, b, _ in cluster.links if u in (a, b)}):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        cands = [p for p in dist if p != src and loads[p - 1] < caps[p - 1]]
        dmin = min(dist[p] for p in cands)
        return sorted(p for p in cands if dist[p] == dmin)

    for pid in range(1, cluster.n_qpus + 1):
        while loads[pid - 1] > caps[pid - 1]:
            members = [q for q in range(len(qpu_of)) if qpu_of[q] == pid]
            q = min(members, key=lambda x: (attraction(x, pid), x))
            dest = max(slack_ring(pid), key=lambda p: (attraction(q, p), -p))
            qpu_of[q] = dest
            loads[pid - 1] -= 1
            loads[dest - 1] += 1
    return Assignment(tuple(qpu_of))


class TestRandomPlacement:
    def test_seed_reproducible(self):
        ct = two_qpu_line(3, 4)
        assert random_placement(5, ct, seed=9) == random_placement(5, ct, seed=9)

    def test_tight_capacity_fills_exactly(self):
        ct = two_qpu_line(2, 3)
        a = random_placement(5, ct, seed=1)
        assert [a.qpu_of.count(p) for p in (1, 2)] == [2, 3]

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            random_placement(6, two_qpu_line(2, 3), seed=0)

    def test_uniform_over_feasible_assignments(self):
        # caps [1, 3] with two qubits: feasible maps are (1,2), (2,1), (2,2),
        # each 1/3 under the uniform model. 9000 draws, 3 sigma tolerance.
        ct = two_qpu_line(1, 3)
        counts = {(1, 2): 0, (2, 1): 0, (2, 2): 0}
        n_draws = 9000
        for s in range(n_draws):
            counts[random_placement(2, ct, seed=s).qpu_of] += 1
        sigma = math.sqrt((1 / 3) * (2 / 3) / n_draws)
        for key, c in counts.items():
            assert abs(c / n_draws - 1 / 3) <= 3 * sigma, (key, c)

    def test_exactly_uniform_on_small_clusters(self, monkeypatch):
        # Every cluster of 1-4 QPUs with capacities 1-3 and every qubit count
        # up to their total: each feasible assignment has probability 1/F.
        for n_qpus in range(1, 5):
            for caps in itertools.product((1, 2, 3), repeat=n_qpus):
                ct = line_cluster(list(caps))
                for n in range(1, sum(caps) + 1):
                    n_feasible = len(_feasible_assignments(n, list(caps)))
                    loads = load_vector_probabilities(n, ct, monkeypatch)
                    assert sum(loads.values()) == 1, (caps, n)
                    arrangements = 0
                    for load, prob in loads.items():
                        assert sum(load) == n and all(a <= c for a, c in zip(load, caps))
                        multinomial = math.factorial(n)
                        for a in load:
                            multinomial //= math.factorial(a)
                        arrangements += multinomial
                        # The shuffle spreads the load vector's probability
                        # evenly over its arrangements.
                        assert prob / multinomial == Fraction(1, n_feasible), (caps, n, load)
                    # The drawn load vectors' arrangements are all F feasible
                    # assignments, each with probability 1/F.
                    assert arrangements == n_feasible, (caps, n)

    def test_large_cluster_feasible(self):
        caps = [30] * 6
        a = random_placement(175, line_cluster(caps), seed=3)
        assert len(a.qpu_of) == 175
        assert all(a.qpu_of.count(p) <= cap for p, cap in enumerate(caps, 1))


def line_cluster(caps: list[int]):
    """QPUs with line couplings, linked in a chain."""
    return build_cluster(
        [{"name": f"q{i}", "comp_capacity": c, "coupling": line_coupling(c),
          "comm_qubits": 1} for i, c in enumerate(caps)],
        [{"a": i, "b": i + 1, "cost_factor": 1.0} for i in range(1, len(caps))],
    )


class _IntervalDraw:
    """One randrange(n) outcome, known as the interval [lo, hi) of the values
    consistent with the comparisons answered so far. A comparison the interval
    decides is answered from it; any other is decided by the rng's script."""

    def __init__(self, rng: "_EnumeratingRng", n: int):
        self.rng, self.n, self.lo, self.hi = rng, n, 0, n

    def __lt__(self, bound: int) -> bool:
        if self.hi <= bound:
            return True
        if self.lo >= bound:
            return False
        below = self.rng.decide()
        if below:
            self.hi = bound
        else:
            self.lo = bound
        return below


class _EnumeratingRng:
    """Stands in for random.Random: draws are _IntervalDraw objects, and the
    undecided comparisons follow `script`, then True. Each True taken past the
    script leaves the run with the same prefix and False still to explore."""

    def __init__(self, script: list[bool]):
        self.script, self.answers, self.unexplored = script, [], []
        self.draws: list[_IntervalDraw] = []
        self.shuffled: list[int] | None = None

    def decide(self) -> bool:
        if len(self.answers) < len(self.script):
            answer = self.script[len(self.answers)]
        else:
            answer = True
            self.unexplored.append(self.answers + [False])
        self.answers.append(answer)
        return answer

    def randrange(self, n: int) -> _IntervalDraw:
        self.draws.append(_IntervalDraw(self, n))
        return self.draws[-1]

    def shuffle(self, labels: list[int]) -> None:
        assert self.shuffled is None, "shuffled twice"
        self.shuffled = list(labels)  # left as drawn; each order is as likely


def load_vector_probabilities(n: int, ct, monkeypatch) -> dict[tuple[int, ...], Fraction]:
    """Exact probability of each load vector random_placement draws, by
    enumerating every distinguishable outcome of each randrange."""
    out: dict[tuple[int, ...], Fraction] = {}
    scripts: list[list[bool]] = [[]]
    while scripts:
        rng = _EnumeratingRng(scripts.pop())
        monkeypatch.setattr(placement, "random", SimpleNamespace(Random=lambda seed: rng))
        got = random_placement(n, ct, seed=0).qpu_of
        scripts += rng.unexplored
        assert got == tuple(rng.shuffled)
        prob = Fraction(1)
        for d in rng.draws:
            prob *= Fraction(d.hi - d.lo, d.n)
        load = tuple(got.count(p) for p in range(1, ct.n_qpus + 1))
        out[load] = out.get(load, Fraction(0)) + prob
    return out
