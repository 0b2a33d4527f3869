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

The intra-QPU layout only prices e_local: it is built, summed and
dropped, and no plan carries it. SegmentCostEvaluator recomputes only the
terms a move touches, caching intra-QPU costs by (QPU, qubit bitmask);
deltas agree with full recomputation to float roundoff. A set's local cost
depends only on its partnered core, the members with a gate partner inside
the set: the greedy layout places the partnerless members after all
others, and they add no pair term. So a cache miss is answered from the
core's entry. A core the cache has not seen is answered by its shape: its
pairs with their gate counts, each member named by its rank among the
core's members. The greedy layout and the cost loop read qubit labels only
through their order, so all cores of one shape on one QPU cost the same,
and a layout is built only when the shape is new, in rank space from the
shape's own triples. A core's shape and its layout cost work in proportion
to its members and their adjacency lists within the core, read from
partner bitmasks, not to the whole segment. The tables of the segment's
pairs (pair list, adjacency, partner bitmasks and partner maps) are built
once per Segment and read in place (see segmentation.PairTables), so every
evaluator on one segment shares them.
The per-QPU constants a layout needs (distance rows, first pick,
nearest-first orders, the cumulative distance histogram of the floor), the
link distances and the capacities are the cluster's, computed at load time
and read in place by QPU id (see hardware.DistanceTables); only the
per-hop gate cost, which depends on the cost parameters, is computed per
evaluator.

A move, a relocation or a swap, is handed to a delta as its transfers
(qubit, from QPU, to QPU), as the annealer draws them: one for a
relocation, two for a swap. A delta walks each moved qubit's gate partners
once, the same walk for both kinds, and gets the inter and move terms and,
for the two changed QPU sets, their change in summed gate count and pair
count. Building new layouts is the
expensive part of a delta. A QPU set where the moved qubits have no
partner keeps its core and so its cost, and needs no layout at all. For
the other new sets a delta can first offer a lower bound that builds
none, each such set at its distance-rank floor (see
SegmentCostEvaluator._floor and SegmentCostEvaluator.delta).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import InfeasibleError
from .hardware import ClusterTopology
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
        for fieldname in ("cx_cost", "swap_cost", "remote_op_cost", "teleport_cost",
                          "gamma1", "gamma2", "gamma3"):
            value = getattr(self, fieldname)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{fieldname} must be finite and >= 0")

    def with_ratio(self, ratio: float) -> "CostParams":
        """These parameters at inter:intra cost ratio r: remote_op_cost =
        teleport_cost = r * cx_cost."""
        if not (math.isfinite(ratio) and ratio > 0):
            raise ValueError("ratio must be finite and positive")
        return replace(self, remote_op_cost=ratio * self.cx_cost,
                       teleport_cost=ratio * self.cx_cost)


@dataclass(frozen=True)
class CostBreakdown:
    e_inter: float
    e_local: float
    e_move: float
    e_total: float
    epr_pairs: int


def _greedy_layout(m: int, flat, table, near, hub: int) -> list[int]:
    """Greedy deterministic embedding of a core's m members, named by their
    ranks 0..m-1, into a coupling map, as phys_of[rank] = physical qubit.

    flat lists the core's pairs in rank space as consecutive (i, j, count)
    triples, i < j and count >= 1, in ascending (i, j) order: the triples of
    a shape key. Members are placed in order of decreasing interaction
    weight among the core, ties toward the lower rank. The first goes to
    `hub`, the physical qubit of highest coupling degree (see
    hardware._qpu_tables). Each later one goes to the free physical qubit
    that minimizes the weighted coupling distance to its placed partners,
    ties toward the lower index, or to the lowest free index if none is
    placed.
    A cursor, lo, only moves forward: every index below it is taken, so the
    lowest free index is the first free one from lo up. With one placed
    partner, on v, with count c, the score is c times v's distance row, so
    the pick is the first free qubit of near[v], the QPU's qubits ordered
    by (hops from v, index). With more, their rows in table, the QPU's
    distance rows, are summed into a score, and the pick is the first
    minimum of a scan of the free indices upward from lo, a later index
    taken only on a strictly lower score. Counts and hops are integers, so
    the scores are exact whatever the order they are summed in.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    negw = [0] * m
    triples = iter(flat)
    for i, j, c in zip(triples, triples, triples):
        adj[i].append((j, c))
        adj[j].append((i, c))
        negw[i] -= c
        negw[j] -= c
    order = sorted(range(m), key=negw.__getitem__)  # stable: ties to the lower rank

    cap = len(table)
    phys_of = [-1] * m
    used = bytearray(cap)
    lo = 0
    pick = hub
    for q in order:
        # v is the physical qubit of the first placed partner, cv its count;
        # a score is summed only once a second one is found.
        v = -1
        score = None
        for o, c in adj[q]:
            p = phys_of[o]
            if p < 0:
                continue
            if v < 0:
                v, cv = p, c
            elif score is None:
                score = [cv * a + c * b for a, b in zip(table[v], table[p])]
            else:
                score = [s + c * d for s, d in zip(score, table[p])]
        if score is not None:
            while used[lo]:
                lo += 1
            pick, best = lo, score[lo]
            for i in range(lo + 1, cap):
                if score[i] < best and not used[i]:
                    pick, best = i, score[i]
        elif v >= 0:
            for pick in near[v]:
                if not used[pick]:
                    break
        elif used[pick]:
            # no placed partner, and not the first member (whose pick is
            # still the free hub): the lowest free index
            while used[lo]:
                lo += 1
            pick = lo
        phys_of[q] = pick
        used[pick] = 1
    return phys_of


def qpu_masks(qpu_of, n_qpus: int) -> list[int]:
    """masks[p] has bit q set when qpu_of[q] == p; masks[0] is unused (0)."""
    masks = [0] * (n_qpus + 1)
    for q, p in enumerate(qpu_of):
        masks[p] |= 1 << q
    return masks


class SegmentCostEvaluator:
    """Objective evaluation for one segment against one cluster.

    Holds a cache of intra-QPU costs keyed by (QPU id, qubit bitmask), bit
    q set when qubit q sits on the QPU, and reads the segment's pair tables
    (see Segment.tables) and the cluster's distance tables in place. A miss is answered from the entry
    of the set's partnered core, the members with a gate partner inside the
    set, or else from the entry of the core's shape (see layout_and_local),
    and is stored under both keys; a layout is built only for a new shape.
    The cache is sound because the segment's pair counts are fixed for the
    evaluator's lifetime, and compile builds one evaluator per segment:
    annealing and the step's exact breakdown read the same cache. Treat
    the segment as read-only: its pair tables are built once and shared by
    every evaluator on it, so an edit of its pairs would reach neither them
    nor this cache. prev is the previous segment's assignment, or None for
    the first segment (no movement charge).
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
        # The segment's pair tables, built once per segment and shared by
        # every evaluator on it (see Segment.tables).
        self.tables = seg.tables
        # _pen[d] = cx + swap * max(0, d - 1), the cost of one gate across d
        # coupling hops, for every distance on any QPU of the cluster. All
        # other tables are the cluster's own, read in place (see
        # DistanceTables) and shared by every evaluator on it.
        cx, swap = cp.cx_cost, cp.swap_cost
        self._pen = [cx + swap * max(0, d - 1) for d in range(max(cluster.caps))]
        self._layout_cache: dict[tuple[int, int], tuple[float, int, int]] = {}
        # (cost, W, P) by core shape: (QPU id, member count, pairs in rank space)
        self._shape_cache: dict[tuple, tuple[float, int, int]] = {}

    # -- per-QPU local term ------------------------------------------------

    def layout_and_local(self, pid: int, mask: int) -> tuple[float, int, int]:
        """The local cost of `mask` on QPU pid under the greedy layout of its
        partnered core, W, the summed gate count of its pairs, and P, the
        number of its pairs. Partnerless members are placed after all others
        and pay nothing, so mask shares its core's entry. One walk of mask
        yields the core as a bitmask, the key of its entry, and as its
        members in ascending order. A core that is not cached is looked up
        by its shape: its pairs (rank i, rank j, count) in ascending order,
        a member's rank its position among the core's members. The greedy
        layout and the cost loop read qubit labels only through their order,
        so cores of one shape on one QPU have the same entry, and a layout
        is built, in rank space from the shape's triples, only for a new
        shape. Since swap_cost >= 0 the local cost is at least the
        distance-rank floor (see _floor)."""
        hit = self._layout_cache.get((pid, mask))
        if hit is not None:
            return hit
        cap = self.cluster.caps[pid]
        if mask.bit_count() > cap:
            raise InfeasibleError(f"{mask.bit_count()} qubits exceed capacity "
                                  f"{cap} of '{self.cluster.qpu(pid).name}'")
        cache = self._layout_cache
        # one walk of mask: the partnered core, as a bitmask and as its
        # members in ascending order
        partner_bits = self.tables.partner_bits
        core = 0
        members = []
        rest = mask
        while rest:
            low = rest & -rest
            q = low.bit_length() - 1
            if partner_bits.get(q, 0) & mask:
                core |= low
                members.append(q)
            rest ^= low
        out = cache.get((pid, core))
        if out is None:
            # the core's pairs in rank space, flat, in ascending (i, j) order,
            # read from each member's partner bits above its own
            partner_of = self.tables.partner_of
            rank = {q: r for r, q in enumerate(members)}
            flat = []
            for q in members:
                r, of = rank[q], partner_of[q]
                rest = partner_bits[q] & core & -(2 << q)
                while rest:
                    low = rest & -rest
                    o, c = of[low]
                    flat += (r, rank[o], c)
                    rest ^= low
            key = (pid, len(members), tuple(flat))
            out = self._shape_cache.get(key)
            if out is None:
                dist, pen = self.cluster.distances, self._pen
                table = dist.intra[pid]
                phys_of = _greedy_layout(len(members), flat, table, dist.near[pid],
                                         dist.hubs[pid])
                cost = 0.0
                weight = 0
                # a fixed float summation order: pairs in ascending (i, j) order
                triples = iter(flat)
                for i, j, c in zip(triples, triples, triples):
                    cost += c * pen[table[phys_of[i]][phys_of[j]]]
                    weight += c
                out = self._shape_cache[key] = (cost, weight, len(flat) // 3)
            cache[(pid, core)] = out
        cache[(pid, mask)] = out
        return out

    def local_costs(self, masks) -> list:
        """The (cost, W, P) of each QPU's set in masks (see layout_and_local),
        by QPU id; index 0 is unused and not priced."""
        return [None] + [self.layout_and_local(p, masks[p]) for p in range(1, len(masks))]

    def _floor(self, pid: int, mask: int, weight: int, npairs: int) -> float:
        """The local cost of `mask` on QPU pid if it is cached, else the
        distance-rank floor cx_cost * W + swap_cost * sum_{k<P} (D[k] - 1)
        from its W and its P pairs, D the QPU's pairwise coupling distances
        in ascending order; no layout is built. A layout puts distinct
        logical pairs on distinct physical pairs, so their hops beyond
        adjacency sum to at least those of the P closest physical pairs,
        and each pair has at least one gate. (A weak form of the
        Gilmore-Lawler bound of the quadratic assignment problem.) The sum
        is read off the cumulative histogram (see hardware._qpu_tables):
        the P closest pairs are all pairs up to the distance i where cum[i]
        reaches P, less the cum[i] - P farthest of them, each i - 1 hops
        beyond adjacency."""
        hit = self._layout_cache.get((pid, mask))
        if hit is not None:
            return hit[0]
        cum, extra = self.cluster.distances.ranks[pid]
        i = bisect_left(cum, npairs)
        cp = self.cp
        return cp.cx_cost * weight + cp.swap_cost * (extra[i] - (cum[i] - npairs) * (i - 1))

    # -- full evaluation -----------------------------------------------------

    def breakdown(self, a: Assignment) -> CostBreakdown:
        cp = self.cp
        inter_cost = self.cluster.distances.inter_cost
        inter_path = self.cluster.distances.inter_path
        qo = a.qpu_of
        e_inter = 0.0
        epr = 0
        for i, j, c in self.tables.pairs:
            pi, pj = qo[i], qo[j]
            if pi != pj:
                e_inter += c * cp.remote_op_cost * inter_cost[pi][pj]
                epr += c * len(inter_path[pi][pj])
        e_local = 0.0
        for pid, mask in enumerate(qpu_masks(qo, self.cluster.n_qpus)):
            if mask:
                e_local += self.layout_and_local(pid, mask)[0]
        e_move = 0.0
        if self.prev is not None:
            po = self.prev.qpu_of
            for q in range(len(qo)):
                if po[q] != qo[q]:
                    e_move += cp.teleport_cost * inter_cost[po[q]][qo[q]]
                    epr += len(inter_path[po[q]][qo[q]])
        total = cp.gamma1 * e_inter + cp.gamma2 * e_local + cp.gamma3 * e_move
        return CostBreakdown(e_inter=e_inter, e_local=e_local, e_move=e_move,
                             e_total=total, epr_pairs=epr)

    # -- incremental evaluation ----------------------------------------------

    def delta(self, qpu_of: list[int], masks, local, moved: tuple[tuple[int, int, int], ...],
              reject: Callable[[float], bool] | None = None) -> float:
        """Objective change if the move with transfers `moved` were applied
        to the current state.

        qpu_of, masks and local describe the current assignment and are not
        modified; masks[p] is the bitmask of the qubits on QPU p and local[p]
        its (cost, W, P), layout_and_local(p, masks[p]), as local_costs
        builds it and the annealing chain keeps it, so the current sets are
        not looked up. moved is ((q, from, to),) for a relocation and
        ((qa, pa, pb), (qb, pb, pa)) for a swap.
        One walk over each moved qubit's partners gives the inter and move
        terms and, for each changed QPU, its change in W and P and whether a
        moved qubit has a partner there. The layout keys of the changed QPUs
        are the current masks with the moved bits flipped. Relocations into
        a full QPU raise InfeasibleError; null moves cost 0. A changed QPU
        set where no moved qubit shares a gate with the set's other members
        keeps its partnered core, so its new local cost is its current one,
        known without a lookup.

        reject, if given, is called once with a lower bound lb on the change
        before any layout of a changed QPU set is built. lb takes the exact
        inter and move terms, the local costs of the current sets from
        local, and for each new set its known or cached local cost or else
        its distance-rank floor (see _floor), minus a margin of 1e-9 * (1 +
        the sum of the terms' magnitudes) for float rounding. When reject(lb)
        is true, delta returns lb; otherwise it returns the exact change.
        """
        q1, p1, p2 = moved[0]
        if p1 == p2:
            return 0.0
        q2 = moved[-1][0]
        old1, old2 = masks[p1], masks[p2]
        if q1 == q2 and old2.bit_count() >= self.cluster.caps[p2]:  # a relocation
            raise InfeasibleError(f"QPU {p2} is full")
        cp = self.cp
        rows = self.cluster.distances.inter_cost
        adj = self.tables.adj
        prev = self.prev
        # One walk over each moved qubit's partners skips the other moved
        # qubit (their pair keeps its distance; it sits on p1 or p2). For
        # QPUs p1 and p2 it counts dw and dp, the changes in W and P, and h,
        # whether a moved qubit has a partner there; s is +1 for a transfer
        # p1 -> p2, -1 for p2 -> p1. d_move adds and subtracts term by term
        # from 0.0: x - y for a relocation, x1 - y1 + x2 - y2 for a swap.
        d_inter = d_move = 0.0
        dw1 = dw2 = dp1 = dp2 = 0
        h1 = h2 = False
        for q, frm, to in moved:
            other = q1 + q2 - q
            s = 1 if frm == p1 else -1
            row_to, row_frm = rows[to], rows[frm]
            for o, c in adj.get(q, ()):
                po = qpu_of[o]
                if po == p1:
                    if o == other:
                        continue
                    dw1 -= s * c
                    dp1 -= s
                    h1 = True
                elif po == p2:
                    if o == other:
                        continue
                    dw2 += s * c
                    dp2 += s
                    h2 = True
                d_inter += c * (row_to[po] - row_frm[po])
            if prev is not None:
                row = rows[prev.qpu_of[q]]
                d_move += row[to]
                d_move -= row[frm]
        d_inter *= cp.remote_op_cost
        d_move *= cp.teleport_cost
        flip = (1 << q1) | (1 << q2)
        new1, new2 = old1 ^ flip, old2 ^ flip

        c1, w1, n1 = local[p1]
        c2, w2, n2 = local[p2]
        if reject is not None:
            f1 = self._floor(p1, new1, w1 + dw1, n1 + dp1) if h1 else c1
            f2 = self._floor(p2, new2, w2 + dw2, n2 + dp2) if h2 else c2
            g_inter, g_move = cp.gamma1 * d_inter, cp.gamma3 * d_move
            lb = g_inter + cp.gamma2 * ((f1 - c1) + (f2 - c2)) + g_move
            lb -= 1e-9 * (1.0 + abs(g_inter) + abs(g_move)
                          + cp.gamma2 * (f1 + c1 + f2 + c2))
            if reject(lb):
                return lb
        x1 = self.layout_and_local(p1, new1)[0] if h1 else c1
        x2 = self.layout_and_local(p2, new2)[0] if h2 else c2
        d_local = x1 - c1 + x2 - c2
        return cp.gamma1 * d_inter + cp.gamma2 * d_local + cp.gamma3 * d_move
