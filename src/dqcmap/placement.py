"""Initial qubit-to-QPU placement.

Per-segment interaction counts are folded into one weighted graph whose edge
weights decay exponentially with segment index, so early segments dominate
the starting placement. Qubits are then clustered bottom-up (heaviest
inter-group weight first, capacity-bounded) into one group per QPU, matched
to QPUs by size against capacity, and repaired if any QPU ended up over
capacity. A capacity-aware uniform random placement serves as the baseline.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import InfeasibleError
from .hardware import ClusterTopology
from .segmentation import Segment


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected weighted graph on logical qubits.

    weights maps (i, j) with 0 <= i < j < n_qubits to a finite weight >= 0.
    Treat as read-only.
    """

    n_qubits: int
    weights: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        for (i, j), w in self.weights.items():
            if not 0 <= i < j < self.n_qubits:
                raise ValueError(f"edge {(i, j)} is not (i, j), 0 <= i < j < {self.n_qubits}")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"edge {(i, j)} has weight {w}, not finite and >= 0")

    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_qubits)]
        for (i, j), w in sorted(self.weights.items()):
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj


@dataclass(frozen=True)
class Assignment:
    """Logical qubit -> QPU id (1-based), valid for one segment."""

    qpu_of: tuple[int, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.qpu_of)


def default_decay(n_segments: int) -> float:
    """Decay rate scaled so late segments still contribute: 3 / S."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    return 3.0 / n_segments


def build_graph(segments: list[Segment], decay: float, n_qubits: int) -> InteractionGraph:
    """Fold per-segment counts into one graph on n_qubits vertices, weighting
    segment s by exp(-decay * s)."""
    if not (math.isfinite(decay) and decay >= 0):
        raise ValueError("decay must be finite and >= 0")
    weights: dict[tuple[int, int], float] = {}
    for seg in segments:
        alpha = math.exp(-decay * seg.index)
        for pair, count in seg.pairs.items():
            weights[pair] = weights.get(pair, 0.0) + alpha * count
    return InteractionGraph(n_qubits=n_qubits, weights=weights)


def _left_sum(values: Iterable[float]) -> float:
    """values added left to right from 0.0, as sum() did before Python 3.12
    made float sums compensated, so a seed's float totals match on every
    Python. 0 + x and 0.0 + x are the same float, so the float start moves
    no sum; it makes the sum of no values the float 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


def edge_cut(g: InteractionGraph, a: Assignment) -> float:
    """Total weight of edges whose endpoints sit on different QPUs."""
    if a.n_qubits < g.n_qubits:
        raise ValueError("assignment does not cover the graph")
    return _left_sum(w for (i, j), w in g.weights.items() if a.qpu_of[i] != a.qpu_of[j])


def check_fits(n_qubits: int, cluster: ClusterTopology) -> None:
    """Raise InfeasibleError if n_qubits exceed the cluster's total capacity."""
    if cluster.total_capacity < n_qubits:
        raise InfeasibleError(
            f"{n_qubits} qubits exceed total capacity {cluster.total_capacity}"
        )


def _chosen_qpus(cluster: ClusterTopology, partitions: int) -> list[int]:
    """The `partitions` largest-capacity QPU ids, capacity desc then id asc."""
    caps = cluster.caps
    return sorted(range(1, len(caps)), key=lambda pid: (-caps[pid], pid))[:partitions]


def cluster_graph(g: InteractionGraph, cluster: ClusterTopology, partitions: int) -> Assignment:
    """Agglomerate qubits into one group per QPU, heaviest edges first.

    Groups start as singletons, each named by its smallest member. Each round
    merges the group pair a < b with the least key (size > cap_max, -w, size,
    a, b), w the weight between the groups, size their merged size and cap_max
    the largest chosen capacity: the heaviest pair that fits, then the smaller
    merge, then the lower ids. If no pair fits while too many groups remain,
    the heaviest pair is merged regardless and repair_capacity cleans up.
    Positive weight beats weight 0, so a round reads only the pairs of
    positive weight, O(edges), and when none of those fits, the two smallest
    groups by (size, id), O(groups): the least key of the weight-0 pairs.
    Groups are then matched to QPUs by descending size against descending
    capacity, a local improvement sweep trims the cut, and the result is
    capacity-repaired.
    """
    n = g.n_qubits
    if n < 1:
        raise ValueError("nothing to place")
    if not 1 <= partitions <= cluster.n_qpus:
        raise ValueError("partitions out of range")
    check_fits(n, cluster)
    chosen = _chosen_qpus(cluster, partitions)
    cap_max = cluster.caps[chosen[0]]
    target = min(partitions, n)

    groups: dict[int, set[int]] = {q: {q} for q in range(n)}
    # Inter-group weights keyed by (gid_a, gid_b), gid = smallest member.
    gw: dict[tuple[int, int], float] = dict(g.weights)

    def merge_key(a: int, b: int) -> tuple[bool, float, int, int, int]:
        size = len(groups[a]) + len(groups[b])
        return (size > cap_max, -gw.get((a, b), 0.0), size, a, b)

    def merge(a: int, b: int) -> None:
        groups[a] |= groups.pop(b)
        for other in list(groups):
            if other == a:
                continue
            moved = gw.pop((min(b, other), max(b, other)), 0.0)
            if moved:
                key = (min(a, other), max(a, other))
                gw[key] = gw.get(key, 0.0) + moved
        gw.pop((a, b), None)

    while len(groups) > target:
        best = min((merge_key(a, b) for (a, b), w in gw.items() if w > 0), default=None)
        if best is None or best[0]:
            # No positive pair fits, so any pair that fits has weight 0, and
            # the least key of all pairs is the two smallest groups' unless
            # they too are oversize and a positive pair exists.
            two = heapq.nsmallest(2, groups, key=lambda q: (len(groups[q]), q))
            least = merge_key(*sorted(two))
            if best is None or not least[0]:
                best = least
        merge(*best[3:])

    ordered = sorted(groups.values(), key=lambda s: (-len(s), min(s)))
    qpu_of = [0] * n
    for grp, pid in zip(ordered, chosen):
        for q in grp:
            qpu_of[q] = pid

    a = Assignment(tuple(qpu_of))
    a = _refine_cut(g, a, cluster, chosen)
    return repair_capacity(a, g, cluster)


def _refine_cut(
    g: InteractionGraph, a: Assignment, cluster: ClusterTopology, chosen: list[int]
) -> Assignment:
    """Pairwise Kernighan-Lin polish on the cut, capacities respected.

    For each QPU pair, repeatedly build a locked sequence of best swaps
    (gains may go negative mid-sequence) and keep the best prefix if it has
    positive total gain. A relocate sweep then spends any capacity slack.
    Deterministic scan order throughout.
    """
    qpu_of = list(a.qpu_of)
    caps = cluster.caps
    adj = g.adjacency()
    rows = [dict(row) for row in adj]  # rows[i][j] is the weight of edge (i, j)

    def gain_relocate(cur: list[int], q: int, dst: int) -> float:
        src = cur[q]
        delta = 0.0
        for o, w in adj[q]:
            if cur[o] == src:
                delta -= w  # becomes cut
            elif cur[o] == dst:
                delta += w  # leaves the cut
        return delta  # positive means the cut shrinks

    def kl_pass(pa: int, pb: int) -> bool:
        """One KL round between QPUs pa and pb; True if the cut shrank."""
        cur = list(qpu_of)
        # The unlocked qubits of each side, ascending; a swapped pair locks.
        free_a = [q for q in range(len(cur)) if cur[q] == pa]
        free_b = [q for q in range(len(cur)) if cur[q] == pb]
        seq: list[tuple[float, int, int]] = []
        cum = 0.0
        while True:
            best = None
            # Each unlocked qubit's relocate gain, once per step.
            side_b = [(qb, gain_relocate(cur, qb, pa)) for qb in free_b]
            for qa in free_a:
                ga = gain_relocate(cur, qa, pb)
                row = rows[qa]
                for qb, gb in side_b:
                    # The (qa, qb) edge stays cut either way but both
                    # relocate gains count it as resolved: subtract twice.
                    gain = ga + gb - 2.0 * row.get(qb, 0.0)
                    if best is None or gain > best[0] + 1e-15:
                        best = (gain, qa, qb)
            if best is None:
                break
            gain, qa, qb = best
            cur[qa], cur[qb] = pb, pa
            free_a.remove(qa)
            free_b.remove(qb)
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
        # Relocates need spare room so they run after the size-preserving
        # swaps, best gain first.
        while True:
            loads = Counter(qpu_of)
            best = max(
                ((gain_relocate(qpu_of, q, dst), q, dst)
                 for q in range(len(qpu_of)) for dst in chosen
                 if dst != qpu_of[q] and loads[dst] < caps[dst]),
                key=lambda t: t[0], default=None,
            )
            if best is None or best[0] <= 1e-12:
                break
            qpu_of[best[1]] = best[2]
            changed = True
        if not changed:
            break
    return Assignment(tuple(qpu_of))


def repair_capacity(
    a: Assignment, g: InteractionGraph, cluster: ClusterTopology
) -> Assignment:
    """Resolve per-QPU overloads by evicting weakly attached qubits.

    From each over-capacity QPU (lowest id first) the qubit with the least
    total weight to its co-located peers moves to a neighboring QPU with
    slack, choosing the destination that increases the cut least; if no link
    neighbor has slack the search widens by BFS over the interconnect. A
    qubit's weight to a QPU is summed over its adjacency list, partners
    ascending. The assignment must cover exactly the graph's qubits.
    """
    if a.n_qubits != g.n_qubits:
        raise ValueError("assignment and graph differ in qubit count")
    check_fits(a.n_qubits, cluster)
    qpu_of = list(a.qpu_of)
    caps, neighbors = cluster.caps, cluster.distances.neighbors
    loads = [0] * len(caps)
    for p in qpu_of:
        loads[p] += 1
    adj = g.adjacency()

    def attraction(q: int, pid: int) -> float:
        return _left_sum(w for o, w in adj[q] if qpu_of[o] == pid)

    def slack_ring(src: int) -> list[int]:
        """QPUs with slack at the smallest link-hop distance from src."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        cands = [p for p in dist if p != src and loads[p] < caps[p]]
        if not cands:
            return []
        dmin = min(dist[p] for p in cands)
        return sorted(p for p in cands if dist[p] == dmin)

    for pid in range(1, cluster.n_qpus + 1):
        while loads[pid] > caps[pid]:
            members = [q for q in range(len(qpu_of)) if qpu_of[q] == pid]
            q = min(members, key=lambda x: (attraction(x, pid), x))
            pool = slack_ring(pid)
            if not pool:
                raise InfeasibleError("no QPU with spare capacity reachable")
            dest = max(pool, key=lambda p: (attraction(q, p), -p))
            qpu_of[q] = dest
            loads[pid] -= 1
            loads[dest] += 1
    return Assignment(tuple(qpu_of))


@lru_cache(maxsize=8)
def _suffix_counts(n: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """S[i][t], t <= n: the ways to place t labelled qubits on QPUs i.. (0-based)
    under capacities caps, with S[P] = (1, 0, ..., 0). S[i][t] is the sum over
    a <= min(caps[i], t) of C(t, a) * S[i + 1][t - a]."""
    kmax = min(max(caps), n)
    suffix = [[0] * (n + 1) for _ in caps] + [[1] + [0] * n]
    row = [1]  # C(t, 0..min(t, kmax)), by Pascal's rule
    for t in range(n + 1):
        if t:
            row = ([1] + [x + y for x, y in zip(row, row[1:] + [0])])[:kmax + 1]
        for i in range(len(caps) - 1, -1, -1):
            after = suffix[i + 1]
            suffix[i][t] = sum(row[a] * after[t - a] for a in range(min(caps[i], t) + 1))
    return tuple(map(tuple, suffix))


def random_placement(n_qubits: int, cluster: ClusterTopology, seed: int) -> Assignment:
    """Sample uniformly among all capacity-feasible assignments.

    First the load vector: going through the QPUs in id order with t qubits
    left, QPU i takes a of them with probability C(t, a) * S[i + 1][t - a] /
    S[i][t], where S[i][t] counts the ways to place t labelled qubits on QPUs
    i.. under capacity. A load vector (a_1, ..., a_P) is then drawn with
    probability n! / (a_1! ... a_P! F), F the number of feasible assignments.
    Then the labels: the multiset [1] * a_1 + ... + [P] * a_P is shuffled
    (Fisher-Yates; Knuth, TAOCP vol. 2, 3.4.2), which gives each of its
    n! / (a_1! ... a_P!) arrangements the same chance. So every feasible
    assignment has probability exactly 1 / F.

    The table S holds O(P * n_qubits) exact integers and takes O(P *
    n_qubits * max_cap) big-int operations; it is cached per (n_qubits,
    capacities), so every sample of a run shares one.
    """
    if n_qubits < 1:
        raise ValueError("nothing to place")
    check_fits(n_qubits, cluster)
    caps = cluster.caps[1:]
    suffix = _suffix_counts(n_qubits, caps)
    rng = random.Random(seed)
    labels: list[int] = []
    t = n_qubits
    for i, cap in enumerate(caps):
        after = suffix[i + 1]
        draw = rng.randrange(suffix[i][t])
        acc = 0
        for a in range(min(cap, t) + 1):
            acc += math.comb(t, a) * after[t - a]
            if draw < acc:
                break
        labels += [i + 1] * a
        t -= a
    rng.shuffle(labels)
    return Assignment(tuple(labels))
