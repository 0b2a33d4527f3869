"""Temporal circuit segmentation.

The circuit is cut into contiguous layer intervals wherever the set of most
active qubits shifts. Activity of a qubit at layer l is its cumulative
two-qubit gate count through l divided by l, smoothed over a +-w layer
window; the top-k such qubits form the layer's active set, and a boundary
opens where consecutive layers' active sets have Jaccard similarity below
the threshold, once the segment being closed spans at least w layers.
Window means come from each qubit's prefix sums of its density, read in one
pass over the layers that holds only the prefix rows of the current window.
Each Segment builds the tables of its pairs that the cost layer reads
(Segment.tables) on first read, once for every evaluator that prices it.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .circuit import LayeredCircuit


@dataclass(frozen=True)
class SegmentationParams:
    window: int
    top_k: int
    threshold: float

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


def _adjacency(pairs) -> dict[int, list[tuple[int, int]]]:
    """qubit -> [(partner, count), ...], partners ascending; pairs are
    (i, j, count) with i < j, in ascending (i, j) order."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, j, c in pairs:
        adj.setdefault(i, []).append((j, c))
        adj.setdefault(j, []).append((i, c))
    return adj


class PairTables:
    """A segment's gate pairs, from its pair counts, in the forms the cost
    layer reads. A pair with no gates costs nothing and partners nobody, so
    none of them holds it. (A plain class: a frozen dataclass would cost
    every import of the package half a millisecond to create.)

    pairs: (i, j, count) with i < j and count >= 1, in ascending (i, j) order.
    adj[q]: q's partners, ascending, as [(partner, count), ...].
    partner_bits[q]: bit o set when qubits q and o share a gate.
    partner_of[q]: that bit, 1 << o, -> (o, count).
    """

    __slots__ = ("pairs", "adj", "partner_bits", "partner_of")

    def __init__(self, counts: dict[tuple[int, int], int]):
        self.pairs = [(i, j, c) for (i, j), c in sorted(counts.items()) if c > 0]
        self.adj = adj = _adjacency(self.pairs)
        self.partner_bits = {q: sum(1 << o for o, _ in ps) for q, ps in adj.items()}
        self.partner_of = {q: {1 << pair[0]: pair for pair in ps} for q, ps in adj.items()}


@dataclass(frozen=True)
class Segment:
    """One contiguous layer interval, 1-based inclusive bounds.

    pairs maps unordered qubit pairs, stored as (i, j) with i < j, to the
    number of two-qubit gates between them inside the interval, in the
    order of each pair's first gate. Treat as read-only: `tables` is built
    from pairs on first read and kept, so the plan, every baseline and every
    sweep row that prices this segment share one build, and a later edit of
    pairs would not reach it.
    """

    index: int
    from_layer: int
    to_layer: int
    pairs: dict[tuple[int, int], int]

    @property
    def n_layers(self) -> int:
        return self.to_layer - self.from_layer + 1

    @cached_property
    def tables(self) -> PairTables:
        """The cost layer's tables of pairs (see PairTables), built once."""
        return PairTables(self.pairs)


def default_params(lc: LayeredCircuit) -> SegmentationParams:
    """Window scales with depth, k with width; threshold 0.5."""
    n = lc.n_qubits
    return SegmentationParams(
        window=max(1, math.ceil(lc.depth / 20)),
        top_k=min(n, max(2, math.ceil(n / 4))),
        threshold=0.5,
    )


def jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """|a & b| / |a | b|, with two empty sets counting as identical."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _build_segments(lc: LayeredCircuit, starts: list[int]) -> list[Segment]:
    """Segments from sorted boundary starts (each the first layer of a
    segment), their pair counts filled in one pass over the gates."""
    bounds = starts + [lc.depth + 1]
    seg_of = [0]  # layer -> index into pairs
    for i in range(len(starts)):
        seg_of.extend([i] * (bounds[i + 1] - bounds[i]))
    pairs: list[dict[tuple[int, int], int]] = [{} for _ in starts]
    for g, lay in zip(lc.circuit.gates, lc.layer_of):
        if g.is_two_qubit:
            a, b = g.qubits
            key = (a, b) if a < b else (b, a)
            counts = pairs[seg_of[lay]]
            counts[key] = counts.get(key, 0) + 1
    return [
        Segment(index=i + 1, from_layer=bounds[i], to_layer=bounds[i + 1] - 1, pairs=pairs[i])
        for i in range(len(starts))
    ]


def segment(lc: LayeredCircuit, params: SegmentationParams | None = None) -> list[Segment]:
    """Segment the layered circuit along interaction-pattern shifts.

    A boundary opens before layer l when the Jaccard similarity between the
    top-k sets of layers l-1 and l drops below the threshold, provided the
    segment being closed is at least window layers long. The result covers
    [1, depth] without gaps; an empty circuit yields no segments.

    One pass over the layers keeps the prefix rows of rho from the window's
    lower end to its upper end, O(n * window) floats.
    """
    if lc.depth == 0:
        return []
    if params is None:
        params = default_params(lc)
    if params.top_k > lc.n_qubits:
        raise ValueError("top_k exceeds qubit count")
    depth, n, w, k = lc.depth, lc.n_qubits, params.window, params.top_k
    ends: list[list[int]] = [[] for _ in range(depth + 1)]  # layer -> gate endpoints
    for g, lay in zip(lc.circuit.gates, lc.layer_of):
        if g.is_two_qubit:
            ends[lay] += g.qubits
    # rows[i - lo] is prefix row i of the window [lo, hi]: its q-th entry is
    # the sum over t <= i of cum_q(t) / t, cum_q(t) q's gates in layers 1..t.
    cum = [0] * n
    rows = deque([[0.0] * n])
    lo = hi = 0
    qubits = range(n)
    starts = [1]
    prev_set = frozenset()
    for l in range(1, depth + 1):
        while hi < min(depth, l + w):
            hi += 1
            for q in ends[hi]:
                cum[q] += 1
            rows.append([p + c / hi for p, c in zip(rows[-1], cum)])
        while lo < max(1, l - w) - 1:
            rows.popleft()
            lo += 1
        span = hi - lo
        col = [(a - b) / span for a, b in zip(rows[-1], rows[0])]
        # A reverse sort is stable, so ties keep ascending qubit order: the k
        # highest scores, ties toward the lower index.
        cur = frozenset(sorted(qubits, key=col.__getitem__, reverse=True)[:k])
        if l - starts[-1] >= w and jaccard(cur, prev_set) < params.threshold:
            starts.append(l)
        prev_set = cur
    return _build_segments(lc, starts)


def random_segment(lc: LayeredCircuit, n_segments: int, seed: int) -> list[Segment]:
    """Cut the circuit into n_segments contiguous pieces at uniform random
    boundaries. Used by the ablation harness as a segmentation control."""
    if lc.depth == 0:
        if n_segments != 0:
            raise ValueError("cannot segment an empty circuit")
        return []
    if not 1 <= n_segments <= lc.depth:
        raise ValueError(f"n_segments must lie in [1, {lc.depth}]")
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(2, lc.depth + 1), n_segments - 1))
    return _build_segments(lc, [1] + cuts)
