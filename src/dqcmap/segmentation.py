"""Temporal circuit segmentation.

The circuit is cut into contiguous layer intervals wherever the set of most
active qubits shifts. Activity of a qubit at layer l is its cumulative
two-qubit gate count through l divided by l, smoothed over a +-w layer
window; the top-k such qubits form the layer's active set, and a boundary
opens where consecutive layers' active sets have Jaccard similarity below
the threshold, once the segment being closed spans at least w layers.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Segment:
    """One contiguous layer interval, 1-based inclusive bounds.

    pairs maps unordered qubit pairs, stored as (i, j) with i < j, to the
    number of two-qubit gates between them inside the interval, in the
    order of each pair's first gate. Treat as read-only.
    """

    index: int
    from_layer: int
    to_layer: int
    pairs: dict[tuple[int, int], int]

    @property
    def n_layers(self) -> int:
        return self.to_layer - self.from_layer + 1


def default_params(lc: LayeredCircuit) -> SegmentationParams:
    """Window scales with depth, k with width; threshold 0.5."""
    n = lc.n_qubits
    return SegmentationParams(
        window=max(1, math.ceil(lc.depth / 20)),
        top_k=min(n, max(2, math.ceil(n / 4))),
        threshold=0.5,
    )


def _windowed_matrix(lc: LayeredCircuit, w: int) -> list[list[float]]:
    """wd[q][l], the activity of qubit q at layer l: the mean over layers i
    in [max(1, l-w), min(depth, l+w)] of its density rho(q, i), its
    two-qubit gates in layers 1..i divided by i. The mean runs over the
    layers inside the circuit, so edge windows are not diluted by missing
    terms. Each row holds the qubit's gate count per layer, then in place
    the prefix sums of rho, and is then replaced by its windowed means."""
    depth = lc.depth
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
    return wd


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
    """
    if lc.depth == 0:
        return []
    if params is None:
        params = default_params(lc)
    if params.top_k > lc.n_qubits:
        raise ValueError("top_k exceeds qubit count")
    wd = _windowed_matrix(lc, params.window)
    k = params.top_k
    qubits = range(lc.n_qubits)

    def active(l: int) -> frozenset[int]:
        # A reverse sort is stable, so ties keep ascending qubit order: the k
        # highest scores, ties toward the lower index.
        col = [row[l] for row in wd]
        return frozenset(sorted(qubits, key=col.__getitem__, reverse=True)[:k])

    starts = [1]
    prev_set = active(1)
    for l in range(2, lc.depth + 1):
        cur = active(l)
        if jaccard(cur, prev_set) < params.threshold and l - starts[-1] >= params.window:
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
