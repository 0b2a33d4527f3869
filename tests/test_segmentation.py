"""Interaction density, activity windows, Jaccard boundaries, segmentation."""
from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcmap.bench import gen_adder, gen_qaoa, gen_qft
from dqcmap.circuit import Circuit, GateOp, layerize
from dqcmap.segmentation import (
    SegmentationParams,
    default_params,
    jaccard,
    random_segment,
    segment,
)

from conftest import (
    count_interactions,
    cx_chain,
    density,
    reference_segment,
    top_k_set,
    windowed_density,
)


# Chain circuit: cx(0,1) in layer 1, cx(1,2) in layer 2, cx(2,3) in layer 3.
# Hand-computed densities rho_q(l) = D_q(l) / l:
#   q0: 1, 1/2, 1/3      q1: 1, 1, 2/3
#   q2: 0, 1/2, 2/3      q3: 0, 0, 1/3
CHAIN = cx_chain(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def lc():
    return layerize(CHAIN)


class TestDensity:
    def test_hand_values(self, lc):
        assert density(lc, 0, 1) == pytest.approx(1.0)
        assert density(lc, 0, 2) == pytest.approx(0.5)
        assert density(lc, 1, 2) == pytest.approx(1.0)
        assert density(lc, 2, 1) == pytest.approx(0.0)
        assert density(lc, 2, 3) == pytest.approx(2 / 3)
        assert density(lc, 3, 3) == pytest.approx(1 / 3)

    def test_range_validation(self, lc):
        with pytest.raises(ValueError):
            density(lc, 9, 1)
        with pytest.raises(ValueError):
            density(lc, 0, 0)
        with pytest.raises(ValueError):
            density(lc, 0, 4)


class TestWindowedDensity:
    def test_mean_over_terms_in_range(self, lc):
        # q0 at l=2, w=1: mean of rho over layers 1..3
        expected = (1.0 + 0.5 + 1 / 3) / 3
        assert windowed_density(lc, 0, 2, 1) == pytest.approx(expected, rel=1e-12)
        assert windowed_density(lc, 0, 2, 1) == pytest.approx(0.6111111111111111)

    def test_window_clamped_at_boundaries(self, lc):
        # l=1, w=1 reaches layers 1..2 only: mean of (1, 1/2)
        assert windowed_density(lc, 0, 1, 1) == pytest.approx(0.75)
        # l=3, w=1 reaches layers 2..3
        assert windowed_density(lc, 1, 3, 1) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_wide_window_covers_everything(self, lc):
        assert windowed_density(lc, 3, 2, 10) == pytest.approx((0 + 0 + 1 / 3) / 3)


class TestJaccard:
    def test_hand_values(self):
        assert jaccard(frozenset(), frozenset()) == 1.0
        assert jaccard(frozenset({0, 1}), frozenset({2, 3})) == 0.0
        assert jaccard(frozenset({1, 2}), frozenset({0, 1})) == pytest.approx(1 / 3)
        assert jaccard(frozenset({4}), frozenset({4})) == 1.0

    @given(st.frozensets(st.integers(0, 9)), st.frozensets(st.integers(0, 9)))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)
        assert (j == 1.0) == (a == b)


class TestTopK:
    def test_hand_trace(self, lc):
        params = SegmentationParams(window=1, top_k=2, threshold=0.5)
        assert top_k_set(lc, 1, params) == frozenset({0, 1})
        assert top_k_set(lc, 2, params) == frozenset({0, 1})
        assert top_k_set(lc, 3, params) == frozenset({1, 2})

    def test_ties_broken_by_ascending_index(self):
        # two disjoint pairs with identical activity; k=2 keeps lowest indices
        circ = Circuit(
            n_qubits=4,
            gates=(GateOp("cx", (0, 1), ()), GateOp("cx", (2, 3), ())),
            name="tie",
        )
        lcx = layerize(circ)
        params = SegmentationParams(window=1, top_k=2, threshold=0.5)
        assert top_k_set(lcx, 1, params) == frozenset({0, 1})


class TestSegment:
    def test_boundary_at_activity_shift(self, lc):
        params = SegmentationParams(window=1, top_k=2, threshold=0.5)
        segs = segment(lc, params)
        assert [(s.from_layer, s.to_layer) for s in segs] == [(1, 2), (3, 3)]
        assert [s.index for s in segs] == [1, 2]
        assert segs[0].pairs == {(0, 1): 1, (1, 2): 1}
        assert segs[1].pairs == {(2, 3): 1}

    def test_min_segment_len_suppresses_boundary(self):
        # cx(0,1) in layer 1, then cx(2,3) in layers 2..6: with window 3 the
        # active set already shifts at layer 2, inside the first window
        # layers, so no boundary opens; with window 2 it shifts at layer 3,
        # two layers in, and one does.
        shift = Circuit(n_qubits=4, gates=cx_chain(4, [(0, 1)] + [(2, 3)] * 5).gates,
                        name="shift", barriers=(1,))
        lcx = layerize(shift)
        wide = SegmentationParams(window=3, top_k=2, threshold=0.5)
        assert top_k_set(lcx, 1, wide) == frozenset({0, 1})
        assert top_k_set(lcx, 2, wide) == frozenset({2, 3})
        assert [(s.from_layer, s.to_layer) for s in segment(lcx, wide)] == [(1, 6)]
        narrow = SegmentationParams(window=2, top_k=2, threshold=0.5)
        assert top_k_set(lcx, 2, narrow) == frozenset({0, 1})
        assert top_k_set(lcx, 3, narrow) == frozenset({2, 3})
        assert [(s.from_layer, s.to_layer) for s in segment(lcx, narrow)] == [(1, 2), (3, 6)]

    def test_default_params_match_hand_choice(self, lc):
        # depth 3 -> window 1; four qubits -> top_k 2; threshold 0.5
        p = default_params(lc)
        assert (p.window, p.top_k, p.threshold) == (1, 2, 0.5)

    def test_theta_zero_never_splits(self, lc):
        params = SegmentationParams(window=1, top_k=2, threshold=0.0)
        assert len(segment(lc, params)) == 1

    def test_theta_one_splits_on_any_change(self, lc):
        params = SegmentationParams(window=1, top_k=2, threshold=1.0)
        # sets: {0,1}, {0,1}, {1,2} -> only the last transition differs
        segs = segment(lc, params)
        assert [(s.from_layer, s.to_layer) for s in segs] == [(1, 2), (3, 3)]

    def test_empty_circuit_has_no_segments(self):
        lcx = layerize(Circuit(n_qubits=2, gates=(), name="e"))
        assert segment(lcx) == []

    def test_deterministic(self, lc):
        assert segment(lc) == segment(lc)


@st.composite
def circuits_and_params(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    n_gates = draw(st.integers(min_value=1, max_value=30))
    gates = []
    for _ in range(n_gates):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != a))
        gates.append(GateOp("cx", (a, b), ()))
    circ = Circuit(n_qubits=n, gates=tuple(gates), name="rand")
    params = SegmentationParams(
        window=draw(st.integers(min_value=1, max_value=4)),
        top_k=draw(st.integers(min_value=1, max_value=n)),
        threshold=draw(st.floats(min_value=0.0, max_value=1.0,
                                 allow_nan=False)),
    )
    return circ, params


class TestSegmentInvariants:
    @given(circuits_and_params())
    @settings(max_examples=60, deadline=None)
    def test_contiguous_disjoint_cover(self, case):
        circ, params = case
        lcx = layerize(circ)
        segs = segment(lcx, params)
        assert segs[0].from_layer == 1
        assert segs[-1].to_layer == lcx.depth
        for prev, cur in zip(segs, segs[1:]):
            assert cur.from_layer == prev.to_layer + 1
        for s in segs:
            assert s.n_layers >= 1

    @given(circuits_and_params())
    @settings(max_examples=60, deadline=None)
    def test_per_segment_counts_sum_to_totals(self, case):
        circ, params = case
        lcx = layerize(circ)
        segs = segment(lcx, params)
        merged: dict = {}
        for s in segs:
            for pair, cnt in s.pairs.items():
                merged[pair] = merged.get(pair, 0) + cnt
        assert merged == count_interactions(lcx, 1, lcx.depth)

    @given(circuits_and_params(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pairs_match_interval_scan(self, case, data):
        # Each segment's dict, of pattern and of random segments, equals a
        # scan of the gate list over its interval, insertion order included.
        circ, params = case
        lcx = layerize(circ)
        n_random = data.draw(st.integers(min_value=1, max_value=lcx.depth))
        for segs in (segment(lcx, params),
                     random_segment(lcx, n_random, data.draw(st.integers(0, 1000)))):
            for s in segs:
                want = count_interactions(lcx, s.from_layer, s.to_layer)
                assert list(s.pairs.items()) == list(want.items())


class TestLayerSweep:
    """segment's one pass over the layers, with a window of prefix rows,
    against the full qubit-by-layer matrix it replaced: equal segments bit
    for bit, at a fraction of the memory."""

    @given(circuits_and_params())
    @settings(max_examples=200, deadline=None)
    def test_random_circuits_match_matrix(self, case):
        circ, params = case
        lcx = layerize(circ)
        assert segment(lcx, params) == reference_segment(lcx, params)

    @pytest.mark.parametrize("circ", [gen_adder(46), gen_qft(20), gen_qaoa(16, 2, seed=0)],
                             ids=["adder46", "qft20", "qaoa16-p2"])
    def test_bench_circuits_match_matrix(self, circ):
        lcx = layerize(circ)
        assert segment(lcx) == reference_segment(lcx)
        rng = random.Random(lcx.n_qubits)
        for _ in range(6):
            params = SegmentationParams(window=rng.randint(1, lcx.depth),
                                        top_k=rng.randint(1, lcx.n_qubits),
                                        threshold=rng.random())
            assert segment(lcx, params) == reference_segment(lcx, params)

    def test_memory_below_one_float_per_qubit_and_layer(self):
        # The matrix held n * (depth + 1) boxed floats; the sweep holds
        # 2 * window + 2 prefix rows, and the bound allows 8 bytes per entry
        # of the matrix.
        lcx = layerize(gen_adder(200))
        tracemalloc.start()
        try:
            segment(lcx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * lcx.n_qubits * (lcx.depth + 1)


class TestRandomSegment:
    def test_deterministic_and_covering(self):
        circ = cx_chain(3, [(0, 1), (1, 2)] * 5)
        lcx = layerize(circ)
        a = random_segment(lcx, 3, seed=42)
        b = random_segment(lcx, 3, seed=42)
        assert [(s.from_layer, s.to_layer) for s in a] == \
            [(s.from_layer, s.to_layer) for s in b]
        assert len(a) == 3
        assert a[0].from_layer == 1
        assert a[-1].to_layer == lcx.depth

    def test_different_seeds_vary(self):
        circ = cx_chain(3, [(0, 1), (1, 2)] * 10)
        lcx = layerize(circ)
        cuts = {
            tuple((s.from_layer, s.to_layer) for s in random_segment(lcx, 4, seed=s))
            for s in range(12)
        }
        assert len(cuts) > 1

    def test_too_many_segments_rejected(self):
        lcx = layerize(cx_chain(2, [(0, 1)]))
        with pytest.raises(ValueError):
            random_segment(lcx, 2, seed=0)
