"""Temporal circuit segmentation.

The circuit is cut into contiguous layer intervals wherever the set of most
active qubits shifts. Activity of a qubit at layer l is its cumulative
two-qubit gate count through l divided by l, smoothed over a +-w layer
window; the top-k such qubits form the layer's active set, and a boundary
opens where consecutive layers' active sets have Jaccard similarity below
the threshold (subject to a minimum segment length).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .circuit import InteractionCount, LayeredCircuit, count_interactions


@dataclass(frozen=True)
class SegmentationParams:
    window: int
    top_k: int
    threshold: float
    min_segment_len: int | None = None  # None: use window

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.min_segment_len is not None and self.min_segment_len < 1:
            raise ValueError("min_segment_len must be >= 1")

    @property
    def min_len(self) -> int:
        return self.window if self.min_segment_len is None else self.min_segment_len


@dataclass(frozen=True)
class Segment:
    """One contiguous layer interval, 1-based inclusive bounds."""

    index: int
    from_layer: int
    to_layer: int
    interactions: InteractionCount

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


def _cumulative_counts(lc: LayeredCircuit) -> list[list[int]]:
    """per_qubit[q][l] = two-qubit gates touching q in layers 1..l (index 0 unused)."""
    depth = lc.depth
    per_layer = [[0] * (depth + 1) for _ in range(lc.n_qubits)]
    for idx, g in enumerate(lc.circuit.gates):
        if g.is_two_qubit:
            lay = lc.layer_of[idx]
            for q in g.qubits:
                per_layer[q][lay] += 1
    for row in per_layer:
        for l in range(1, depth + 1):
            row[l] += row[l - 1]
    return per_layer


def _windowed_matrix(lc: LayeredCircuit, w: int) -> list[list[float]]:
    """wd[q][l], the activity of qubit q at layer l: the mean over layers i
    in [max(1, l-w), min(depth, l+w)] of its density rho(q, i), its
    two-qubit gates in layers 1..i divided by i. The mean runs over the
    layers inside the circuit, so edge windows are not diluted by missing
    terms. Computed via prefix sums."""
    depth = lc.depth
    cum = _cumulative_counts(lc)
    out = []
    for q in range(lc.n_qubits):
        rho = [0.0] * (depth + 1)
        for l in range(1, depth + 1):
            rho[l] = cum[q][l] / l
        pref = [0.0] * (depth + 1)
        for l in range(1, depth + 1):
            pref[l] = pref[l - 1] + rho[l]
        row = [0.0] * (depth + 1)
        for l in range(1, depth + 1):
            lo = max(1, l - w)
            hi = min(depth, l + w)
            row[l] = (pref[hi] - pref[lo - 1]) / (hi - lo + 1)
        out.append(row)
    return out


def jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """|a & b| / |a | b|, with two empty sets counting as identical."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _build_segments(lc: LayeredCircuit, starts: list[int]) -> list[Segment]:
    """Segments from sorted boundary starts (each the first layer of a segment)."""
    segs = []
    bounds = starts + [lc.depth + 1]
    for i in range(len(starts)):
        lo, hi = bounds[i], bounds[i + 1] - 1
        segs.append(Segment(
            index=i + 1, from_layer=lo, to_layer=hi,
            interactions=count_interactions(lc, lo, hi),
        ))
    return segs


def segment(lc: LayeredCircuit, params: SegmentationParams | None = None) -> list[Segment]:
    """Segment the layered circuit along interaction-pattern shifts.

    A boundary opens before layer l when the Jaccard similarity between the
    top-k sets of layers l-1 and l drops below the threshold, provided the
    segment being closed is at least min_len layers long. The result covers
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

    def active(l: int) -> frozenset[int]:
        scores = sorted((-wd[q][l], q) for q in range(lc.n_qubits))
        return frozenset(q for _, q in scores[:k])

    starts = [1]
    prev_set = active(1)
    for l in range(2, lc.depth + 1):
        cur = active(l)
        if jaccard(cur, prev_set) < params.threshold and l - starts[-1] >= params.min_len:
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
