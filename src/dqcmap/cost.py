"""Segment cost model.

For one segment and one assignment the objective is

    e_total = g1 * e_inter + g2 * e_local + g3 * e_move

where e_inter charges every cut pair its gate count times remote_op_cost
times the link distance between its QPUs, e_local charges co-located pairs
cx_cost plus swap_cost per coupling hop beyond adjacency under a greedy
deterministic intra-QPU layout, and e_move charges teleport_cost times link
distance for every qubit whose QPU changed since the previous segment.
EPR usage is the integer companion: one pair per link hop for every remote
gate and every teleport.

SegmentCostEvaluator recomputes only the terms a move touches, caching
intra-QPU layouts by (QPU, qubit bitmask); deltas agree with full
recomputation to float roundoff. A layout costs work in proportion to the
QPU's members and their adjacency lists, not to the whole segment.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleError
from .hardware import ClusterTopology, QPU, _intra_table
from .placement import Assignment
from .segmentation import Segment


@dataclass(frozen=True)
class CostParams:
    cx_cost: float = 1.0
    swap_cost: float = 3.0
    remote_op_cost: float = 5.0
    teleport_cost: float = 5.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0

    def __post_init__(self):
        for fieldname in ("cx_cost", "swap_cost", "remote_op_cost", "teleport_cost"):
            if getattr(self, fieldname) < 0:
                raise ValueError(f"{fieldname} must be >= 0")
        for fieldname in ("gamma1", "gamma2", "gamma3"):
            if getattr(self, fieldname) < 0:
                raise ValueError(f"{fieldname} must be >= 0")

    @classmethod
    def from_ratio(cls, ratio: float, **overrides) -> "CostParams":
        """Inter:intra cost ratio r sets remote_op_cost = teleport_cost = r * cx_cost."""
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        base = dict(cx_cost=1.0, swap_cost=3.0)
        base.update(overrides)
        cx = base["cx_cost"]
        base.setdefault("remote_op_cost", ratio * cx)
        base.setdefault("teleport_cost", ratio * cx)
        return cls(**base)


@dataclass(frozen=True)
class CostBreakdown:
    e_inter: float
    e_local: float
    e_move: float
    e_total: float
    epr_pairs: int

    def as_dict(self) -> dict:
        return {
            "e_inter": self.e_inter,
            "e_local": self.e_local,
            "e_move": self.e_move,
            "e_total": self.e_total,
            "epr_pairs": self.epr_pairs,
        }


@dataclass(frozen=True)
class IntraLayout:
    """Logical qubit -> physical qubit index on one QPU."""

    qpu_id: int
    phys_of: dict[int, int]


@dataclass(frozen=True)
class Move:
    """A candidate reassignment: relocate one qubit or swap two across QPUs."""

    kind: str  # "relocate" | "swap"
    a: int
    dest: int = 0  # relocate target QPU id
    b: int = -1  # swap partner qubit


def _adjacency(pairs) -> dict[int, list[tuple[int, int]]]:
    """qubit -> [(partner, count), ...], partners ascending; pairs are
    (i, j, count) with i < j, in ascending (i, j) order."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, j, c in pairs:
        adj.setdefault(i, []).append((j, c))
        adj.setdefault(j, []).append((i, c))
    return adj


def _greedy_layout(qpu: QPU, qubits: list[int], adj, table) -> IntraLayout:
    """Greedy deterministic embedding of logical qubits into a coupling map.

    Qubits are placed in order of decreasing interaction weight among the
    co-located set (ties toward lower qubit index). The first goes to the
    physical qubit of highest coupling degree; each later one to the free
    physical qubit minimizing the weighted coupling distance to its already
    placed partners (ties toward the lower physical index). adj is the
    segment's adjacency (see _adjacency); counts and hops are integers, so
    the scores are exact whatever the order they are summed in.
    """
    qset = set(qubits)
    if len(qset) != len(qubits):
        raise ValueError("duplicate qubits in layout request")
    n_phys = qpu.comp_capacity
    if len(qubits) > n_phys:
        raise InfeasibleError(
            f"{len(qubits)} qubits exceed capacity {n_phys} of '{qpu.name}'"
        )
    partners = {q: [(o, c) for o, c in adj.get(q, ()) if o in qset] for q in qubits}
    order = sorted(qubits, key=lambda q: (-sum(c for _, c in partners[q]), q))

    degree = [0] * n_phys
    for i, j in qpu.coupling:
        degree[i] += 1
        degree[j] += 1

    phys_of: dict[int, int] = {}
    free: list[int] = list(range(n_phys))
    for q in order:
        if not phys_of:
            pick = max(free, key=degree.__getitem__)  # first, so lowest index
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
    return IntraLayout(qpu_id=qpu.id, phys_of=phys_of)


def intra_layout(qpu: QPU, qubits: list[int], interactions) -> IntraLayout:
    """Standalone layout call; distances from the cluster's intra-QPU table."""
    pairs = [(i, j, c) for (i, j), c in sorted(interactions.pairs.items())]
    return _greedy_layout(qpu, sorted(qubits), _adjacency(pairs), _intra_table(qpu))


def qpu_masks(qpu_of, n_qpus: int) -> list[int]:
    """masks[p] has bit q set when qpu_of[q] == p; masks[0] is unused (0)."""
    masks = [0] * (n_qpus + 1)
    for q, p in enumerate(qpu_of):
        masks[p] |= 1 << q
    return masks


def _members(mask: int) -> list[int]:
    """Set bits of mask, ascending: qubit q is a member when bit q is set."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class SegmentCostEvaluator:
    """Objective evaluation for one segment against one cluster.

    Holds the per-pair gate counts, the distance tables, and a cache of
    intra-QPU layouts keyed by (QPU id, qubit bitmask), bit q set when qubit
    q sits on the QPU. The cache is sound because the segment's interactions
    are fixed for the evaluator's lifetime, and compile builds one evaluator
    per segment: annealing, the step's exact breakdown and its final layouts
    all read the same cache. prev is the previous segment's assignment, or
    None for the first segment (no movement charge).
    """

    def __init__(
        self,
        cluster: ClusterTopology,
        seg: Segment,
        cp: CostParams,
        prev: Assignment | None = None,
    ):
        self.cluster = cluster
        self.seg = seg
        self.cp = cp
        self.prev = prev
        self.pairs: list[tuple[int, int, int]] = [
            (i, j, c) for (i, j), c in sorted(seg.interactions.pairs.items())
        ]
        self.adj = _adjacency(self.pairs)
        n = cluster.n_qpus
        inter_cost = cluster.distances.inter_cost
        # _cost_rows[p][r] is inter_cost[(p, r)]; _caps[p] the capacity of
        # QPU p. Index 0 is unused, as QPU ids start at 1.
        self._cost_rows = [()] + [
            [0.0] + [inter_cost[(p, r)] for r in range(1, n + 1)] for p in range(1, n + 1)
        ]
        self._caps = [0] + cluster.capacities()
        # upper[i]: the pairs (i, j) with j > i, j ascending, so walking the
        # members in ascending order visits pairs in ascending (i, j) order.
        self._upper = {i: [(j, c) for j, c in row if j > i] for i, row in self.adj.items()}
        self._layout_cache: dict[tuple[int, int], tuple[IntraLayout, float]] = {}

    # -- per-QPU local term ------------------------------------------------

    def layout_and_local(self, pid: int, mask: int) -> tuple[IntraLayout, float]:
        """Layout of the qubits in `mask` on QPU pid and their local cost."""
        key = (pid, mask)
        hit = self._layout_cache.get(key)
        if hit is not None:
            return hit
        members = _members(mask)
        table = self.cluster.distances.intra[pid - 1]
        lay = _greedy_layout(self.cluster.qpus[pid - 1], members, self.adj, table)
        phys_of = lay.phys_of
        cx, swap = self.cp.cx_cost, self.cp.swap_cost
        upper = self._upper
        cost = 0.0
        for i in members:
            row = table[phys_of[i]]
            for j, c in upper.get(i, ()):
                if mask >> j & 1:
                    d = row[phys_of[j]]
                    cost += c * (cx + swap * max(0, d - 1))
        out = (lay, cost)
        self._layout_cache[key] = out
        return out

    # -- full evaluation -----------------------------------------------------

    def breakdown(self, a: Assignment) -> CostBreakdown:
        cp = self.cp
        inter_cost = self.cluster.distances.inter_cost
        inter_hops = self.cluster.distances.inter_hops
        qo = a.qpu_of
        e_inter = 0.0
        epr = 0
        for i, j, c in self.pairs:
            pi, pj = qo[i], qo[j]
            if pi != pj:
                e_inter += c * cp.remote_op_cost * inter_cost[(pi, pj)]
                epr += c * inter_hops[(pi, pj)]
        e_local = 0.0
        for pid, mask in enumerate(qpu_masks(qo, self.cluster.n_qpus)):
            if mask:
                e_local += self.layout_and_local(pid, mask)[1]
        e_move = 0.0
        if self.prev is not None:
            po = self.prev.qpu_of
            for q in range(len(qo)):
                if po[q] != qo[q]:
                    e_move += cp.teleport_cost * inter_cost[(po[q], qo[q])]
                    epr += inter_hops[(po[q], qo[q])]
        total = cp.gamma1 * e_inter + cp.gamma2 * e_local + cp.gamma3 * e_move
        return CostBreakdown(e_inter=e_inter, e_local=e_local, e_move=e_move,
                             e_total=total, epr_pairs=epr)

    # -- incremental evaluation ----------------------------------------------

    def delta(self, qpu_of: list[int], masks, move: Move) -> float:
        """Objective change if `move` were applied to the current state.

        qpu_of and masks describe the current assignment and are not
        modified; masks[p] is the bitmask of the qubits on QPU p. The layout
        keys of the changed QPUs are the current masks with the moved bits
        flipped. Relocations into a full QPU raise InfeasibleError; null
        moves cost 0.
        """
        cp = self.cp
        rows = self._cost_rows
        local = self.layout_and_local
        if move.kind == "relocate":
            q, src, dst = move.a, qpu_of[move.a], move.dest
            if dst == src:
                return 0.0
            m_dst = masks[dst]
            if m_dst.bit_count() >= self._caps[dst]:
                raise InfeasibleError(f"QPU {dst} is full")
            d_inter = 0.0
            row_dst, row_src = rows[dst], rows[src]
            for o, c in self.adj.get(q, ()):
                po = qpu_of[o]
                d_inter += c * (row_dst[po] - row_src[po])
            d_inter *= cp.remote_op_cost
            bit = 1 << q
            m_src = masks[src]
            rest = m_src ^ bit
            d_local = (
                local(src, rest)[1] - local(src, m_src)[1]
                if rest else -local(src, m_src)[1]
            )
            d_local += local(dst, m_dst | bit)[1] - (
                local(dst, m_dst)[1] if m_dst else 0.0
            )
            d_move = 0.0
            if self.prev is not None:
                pq = self.prev.qpu_of[q]
                d_move = cp.teleport_cost * (rows[pq][dst] - rows[pq][src])
            return cp.gamma1 * d_inter + cp.gamma2 * d_local + cp.gamma3 * d_move

        if move.kind == "swap":
            qa, qb = move.a, move.b
            pa, pb = qpu_of[qa], qpu_of[qb]
            if qa == qb or pa == pb:
                return 0.0
            d_inter = 0.0
            row_a, row_b = rows[pa], rows[pb]
            for o, c in self.adj.get(qa, ()):
                if o == qb:
                    continue  # their own pair stays at the same distance
                po = qpu_of[o]
                d_inter += c * (row_b[po] - row_a[po])
            for o, c in self.adj.get(qb, ()):
                if o == qa:
                    continue
                po = qpu_of[o]
                d_inter += c * (row_a[po] - row_b[po])
            d_inter *= cp.remote_op_cost
            flip = (1 << qa) | (1 << qb)
            m_a, m_b = masks[pa], masks[pb]
            d_local = (
                local(pa, m_a ^ flip)[1] - local(pa, m_a)[1]
                + local(pb, m_b ^ flip)[1] - local(pb, m_b)[1]
            )
            d_move = 0.0
            if self.prev is not None:
                po = self.prev.qpu_of
                d_move = cp.teleport_cost * (
                    rows[po[qa]][pb] - rows[po[qa]][pa]
                    + rows[po[qb]][pa] - rows[po[qb]][pb]
                )
            return cp.gamma1 * d_inter + cp.gamma2 * d_local + cp.gamma3 * d_move

        raise ValueError(f"unknown move kind '{move.kind}'")

    def layouts(self, a: Assignment) -> dict[int, IntraLayout]:
        return {
            pid: self.layout_and_local(pid, mask)[0]
            for pid, mask in enumerate(qpu_masks(a.qpu_of, self.cluster.n_qpus)) if mask
        }


# -- module-level operation forms ---------------------------------------------

def e_local(a: Assignment, seg: Segment, cluster: ClusterTopology, cp: CostParams) -> float:
    """Intra-QPU overhead of co-located interacting pairs."""
    ev = SegmentCostEvaluator(cluster, seg, cp)
    return ev.breakdown(a).e_local


def e_inter(a: Assignment, seg: Segment, cluster: ClusterTopology, cp: CostParams) -> float:
    """Remote-operation overhead of cut pairs."""
    ev = SegmentCostEvaluator(cluster, seg, cp)
    return ev.breakdown(a).e_inter


def e_move(prev: Assignment | None, cur: Assignment, cluster: ClusterTopology,
           cp: CostParams) -> float:
    """Teleportation charge for qubits whose QPU changed between segments."""
    if prev is None:
        return 0.0
    inter_cost = cluster.distances.inter_cost
    out = 0.0
    for q in range(len(cur.qpu_of)):
        if prev.qpu_of[q] != cur.qpu_of[q]:
            out += cp.teleport_cost * inter_cost[(prev.qpu_of[q], cur.qpu_of[q])]
    return out


def total(a: Assignment, seg: Segment, prev: Assignment | None,
          cluster: ClusterTopology, cp: CostParams) -> CostBreakdown:
    """Full objective with components and EPR count for one segment."""
    ev = SegmentCostEvaluator(cluster, seg, cp, prev=prev)
    return ev.breakdown(a)


def delta_total(ev: SegmentCostEvaluator, a: Assignment, move: Move) -> float:
    """Incremental objective change of `move` applied to assignment `a`."""
    return ev.delta(list(a.qpu_of), qpu_masks(a.qpu_of, ev.cluster.n_qpus), move)
