"""Segment objective: local/inter/move terms, deltas, EPR accounting."""
from __future__ import annotations

import itertools

import pytest

import dqcmap.cost
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcmap.cost import (
    CostParams,
    SegmentCostEvaluator,
    _greedy_layout,
    qpu_masks,
)
from dqcmap.errors import InfeasibleError
from dqcmap.hardware import build_cluster
from dqcmap.placement import Assignment
from dqcmap.segmentation import Segment

from conftest import (
    cost_params,
    coupled_cluster,
    delta_total,
    e_inter,
    e_local,
    e_move,
    full_layout_and_local,
    line_coupling,
    random_case,
    reference_greedy_layout,
    total,
    two_qpu_line,
)


def seg_of(pairs: dict, index: int = 1) -> Segment:
    return Segment(index=index, from_layer=1, to_layer=2,
                   pairs=dict(pairs))


def line3_cluster(cf12: float = 1.0, cf23: float = 2.0):
    """Three QPUs on a line interconnect; intra couplings are 3-qubit lines."""
    return build_cluster(
        [{"name": f"p{i}", "comp_capacity": 3,
          "coupling": line_coupling(3), "comm_qubits": 1} for i in range(3)],
        [{"a": 1, "b": 2, "cost_factor": cf12},
         {"a": 2, "b": 3, "cost_factor": cf23}],
    )


class TestCostParams:
    def test_with_ratio(self):
        cp = CostParams().with_ratio(4)
        assert (cp.remote_op_cost, cp.teleport_cost) == (4.0, 4.0)
        assert (cp.cx_cost, cp.swap_cost) == (1.0, 3.0)
        # the ratio scales cx_cost, and every other field is kept
        cp = CostParams(cx_cost=0.5, swap_cost=2.0, gamma2=0.25).with_ratio(4)
        assert cp == CostParams(cx_cost=0.5, swap_cost=2.0, remote_op_cost=2.0,
                                teleport_cost=2.0, gamma2=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(cx_cost=-1.0)
        with pytest.raises(ValueError):
            CostParams(gamma2=-0.1)
        with pytest.raises(ValueError):
            CostParams().with_ratio(0)

    @pytest.mark.parametrize("field", ["cx_cost", "swap_cost", "remote_op_cost",
                                       "teleport_cost", "gamma1", "gamma2", "gamma3"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CostParams(**{field: value})

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            CostParams().with_ratio(ratio)


class TestLocalTerm:
    def test_greedy_matches_exhaustive_on_line(self):
        # one 3-qubit QPU with line coupling; heavy pairs (0,1) and (1,2)
        # force q1 into the middle: 10*1 + 10*1 + 1*(1 + 3) = 24
        ct = build_cluster(
            [{"name": "solo", "comp_capacity": 3,
              "coupling": line_coupling(3), "comm_qubits": 1}],
            [],
        )
        seg = seg_of({(0, 1): 10, (1, 2): 10, (0, 2): 1})
        cp = CostParams()
        got = e_local(Assignment((1, 1, 1)), seg, ct, cp)
        assert got == pytest.approx(24.0)

        hops = [[0, 1, 2], [1, 0, 1], [2, 1, 2]]
        hops[2][2] = 0
        best = min(
            sum(c * (cp.cx_cost + cp.swap_cost * max(0, hops[perm[i]][perm[j]] - 1))
                for (i, j), c in seg.pairs.items())
            for perm in itertools.permutations(range(3))
        )
        assert got == pytest.approx(best)

    def test_adjacent_pair_costs_cx_only(self):
        ct = two_qpu_line(2, 2)
        seg = seg_of({(0, 1): 7})
        assert e_local(Assignment((1, 1)), seg, ct, CostParams()) == pytest.approx(7.0)

    def test_cut_pair_has_no_local_cost(self):
        ct = two_qpu_line(2, 2)
        seg = seg_of({(0, 1): 7})
        assert e_local(Assignment((1, 2)), seg, ct, CostParams()) == 0.0

    def test_intra_layout_injective_and_bounded(self):
        ct = line3_cluster()
        dist = ct.distances
        # one pair (0, 1) with 2 gates among 3 members, in rank space
        phys_of = dict(enumerate(_greedy_layout(3, [0, 1, 2], dist.intra[1], dist.near[1],
                                                dist.hubs[1])))
        assert sorted(phys_of) == [0, 1, 2]
        assert len(set(phys_of.values())) == 3
        assert all(0 <= ph < 3 for ph in phys_of.values())

    def test_intra_layout_over_capacity(self):
        # no pair, so no layout is built, yet the set is refused
        ct = two_qpu_line(2, 2)
        ev = SegmentCostEvaluator(ct, seg_of({}), CostParams())
        with pytest.raises(InfeasibleError):
            ev.layout_and_local(1, 0b111)


class TestInterAndMoveTerms:
    def test_inter_charges_link_distance(self):
        # QPUs 1 and 3 sit two links apart: cost 1.0 + 2.0, hops 2
        ct = line3_cluster()
        seg = seg_of({(0, 1): 5})
        a = Assignment((1, 3))
        assert e_inter(a, seg, ct, CostParams()) == pytest.approx(75.0)  # 5*5*3.0
        bd = total(a, seg, None, ct, CostParams())
        assert bd.epr_pairs == 10  # 5 gates * 2 hops

    def test_move_charges_teleport_distance(self):
        ct = line3_cluster()
        prev = Assignment((1, 1))
        cur = Assignment((3, 1))
        assert e_move(prev, cur, ct, CostParams()) == pytest.approx(15.0)  # 5*3.0
        assert e_move(None, cur, ct, CostParams()) == 0.0

    def test_move_epr_counts_hops(self):
        ct = line3_cluster()
        seg = seg_of({})
        bd = total(Assignment((3, 1)), seg, Assignment((1, 1)), ct, CostParams())
        assert bd.epr_pairs == 2
        assert bd.e_move == pytest.approx(15.0)

    def test_total_is_weighted_sum(self):
        ct = line3_cluster()
        seg = seg_of({(0, 1): 3, (1, 2): 2})
        cp = CostParams(gamma1=2.0, gamma2=0.5, gamma3=4.0)
        prev = Assignment((1, 1, 2))
        cur = Assignment((1, 2, 2))
        bd = total(cur, seg, prev, ct, cp)
        assert bd.e_total == pytest.approx(
            2.0 * bd.e_inter + 0.5 * bd.e_local + 4.0 * bd.e_move)

    def test_remote_cost_scales_inter_term(self):
        ct = line3_cluster()
        seg = seg_of({(0, 1): 4})
        a = Assignment((1, 2))
        one = e_inter(a, seg, ct, CostParams(remote_op_cost=1.0))
        ten = e_inter(a, seg, ct, CostParams(remote_op_cost=10.0))
        assert ten == pytest.approx(10.0 * one)


def relocation(qpu_of, q: int, dest: int):
    """Transfers of moving qubit q to QPU dest."""
    return ((q, qpu_of[q], dest),)


def swap(qpu_of, qa: int, qb: int):
    """Transfers of exchanging the QPUs of qubits qa and qb."""
    pa, pb = qpu_of[qa], qpu_of[qb]
    return ((qa, pa, pb), (qb, pb, pa))


def apply_move(a: Assignment, moved) -> Assignment:
    qo = list(a.qpu_of)
    for q, _, to in moved:
        qo[q] = to
    return Assignment(tuple(qo))


class TestDelta:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_relocate_delta_matches_full(self, data):
        ct, seg, cur, prev = random_case(data, with_prev=data.draw(st.booleans()))
        ev = SegmentCostEvaluator(ct, seg, CostParams(), prev=prev)
        n = len(cur.qpu_of)
        q = data.draw(st.integers(0, n - 1))
        open_qpus = [p for p in (1, 2, 3)
                     if cur.qpu_of.count(p) < ct.qpu(p).comp_capacity
                     or p == cur.qpu_of[q]]
        dst = data.draw(st.sampled_from(open_qpus))
        move = relocation(cur.qpu_of, q, dst)
        d = delta_total(ev, cur, move)
        after = apply_move(cur, move)
        full = ev.breakdown(after).e_total - ev.breakdown(cur).e_total
        assert d == pytest.approx(full, rel=1e-9, abs=1e-9)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_swap_delta_matches_full(self, data):
        ct, seg, cur, prev = random_case(data, with_prev=data.draw(st.booleans()))
        ev = SegmentCostEvaluator(ct, seg, CostParams(), prev=prev)
        n = len(cur.qpu_of)
        qa = data.draw(st.integers(0, n - 1))
        qb = data.draw(st.integers(0, n - 1))
        move = swap(cur.qpu_of, qa, qb)
        d = delta_total(ev, cur, move)
        after = apply_move(cur, move)
        full = ev.breakdown(after).e_total - ev.breakdown(cur).e_total
        assert d == pytest.approx(full, rel=1e-9, abs=1e-9)

    def test_null_moves_are_free(self):
        ct = two_qpu_line(2, 2)
        seg = seg_of({(0, 1): 3})
        ev = SegmentCostEvaluator(ct, seg, CostParams())
        a = Assignment((1, 2))
        assert delta_total(ev, a, relocation(a.qpu_of, 0, 1)) == 0.0
        assert delta_total(ev, a, swap(a.qpu_of, 1, 1)) == 0.0

    def test_relocate_into_full_qpu(self):
        ct = two_qpu_line(2, 2)
        seg = seg_of({(0, 1): 1})
        ev = SegmentCostEvaluator(ct, seg, CostParams())
        a = Assignment((1, 1, 2, 2))
        with pytest.raises(InfeasibleError):
            delta_total(ev, a, relocation(a.qpu_of, 0, 2))

    def test_transfers(self):
        # the helpers above build the transfer forms delta documents
        qpu_of = [1, 1, 2]
        assert relocation(qpu_of, 0, 2) == ((0, 1, 2),)
        assert swap(qpu_of, 0, 2) == ((0, 1, 2), (2, 2, 1))
        # null moves: the first transfer stays on its QPU
        assert relocation(qpu_of, 2, 2) == ((2, 2, 2),)
        assert swap(qpu_of, 0, 1) == ((0, 1, 1), (1, 1, 1))

    def test_layout_cache_reused(self):
        ct = two_qpu_line(3, 3)
        ev = SegmentCostEvaluator(ct, seg_of({(0, 1): 2, (1, 2): 1}), CostParams())
        members = 0b111  # qubits 0, 1 and 2
        first = ev.layout_and_local(1, members)
        assert ev.layout_and_local(1, members) is first

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_lower_bound_never_exceeds_delta(self, data):
        # The bound delta hands to `reject` is at most the exact change, both
        # before the new QPU sets' layouts are built (cx floor) and after
        # (their exact cached costs, less the rounding margin).
        ct, seg, cur, prev = random_case(data, with_prev=data.draw(st.booleans()))
        ev = SegmentCostEvaluator(ct, seg, cost_params(data), prev=prev)
        n = len(cur.qpu_of)
        if data.draw(st.booleans()):
            q = data.draw(st.integers(0, n - 1))
            open_qpus = [p for p in (1, 2, 3)
                         if cur.qpu_of.count(p) < ct.qpu(p).comp_capacity
                         or p == cur.qpu_of[q]]
            moved = relocation(cur.qpu_of, q, data.draw(st.sampled_from(open_qpus)))
        else:
            moved = swap(cur.qpu_of, data.draw(st.integers(0, n - 1)),
                         data.draw(st.integers(0, n - 1)))
        qo, masks = list(cur.qpu_of), qpu_masks(cur.qpu_of, 3)
        local = ev.local_costs(masks)
        bounds = []

        def reject(lb):
            bounds.append(lb)
            return True

        first = ev.delta(qo, masks, local, moved, reject)
        exact = ev.delta(qo, masks, local, moved)
        again = ev.delta(qo, masks, local, moved, reject)
        assert exact == delta_total(ev, cur, moved)
        if not bounds:  # a null move: no bound, no change
            assert first == exact == again == 0.0
            return
        assert bounds == [first, again]
        assert first <= exact
        assert again <= exact
        assert again == pytest.approx(exact, rel=1e-6, abs=1e-6)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cached_weight_is_pair_count(self, data):
        ct, seg, cur, _ = random_case(data, with_prev=False)
        ev = SegmentCostEvaluator(ct, seg, cost_params(data))
        for p, mask in enumerate(qpu_masks(cur.qpu_of, 3)):
            if mask:
                on = {q for q in range(len(cur.qpu_of)) if mask >> q & 1}
                want = sum(c for (i, j), c in seg.pairs.items()
                           if i in on and j in on)
                assert ev.layout_and_local(p, mask)[1] == want


def one_qpu(coupling: str, k: int):
    return coupled_cluster(coupling, (k,))


def members_mask(qubits) -> int:
    return sum(1 << q for q in qubits)


def assert_exact(ev: SegmentCostEvaluator, pid: int, masks) -> None:
    """Each mask's (cost, W, P) from ev equals full_layout_and_local's cost
    and W and the count of the mask's pairs."""
    for mask in masks:
        npairs = sum(1 for i, j in ev.seg.pairs if mask >> i & 1 and mask >> j & 1)
        assert ev.layout_and_local(pid, mask) == (*full_layout_and_local(ev, pid, mask), npairs)


class TestPartneredCore:
    """The cache answers a set from its partnered core, the members with a
    gate partner inside the set; full_layout_and_local is the oracle."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cached_cost_matches_full_build(self, data):
        ct, seg, cur, _ = random_case(data, with_prev=False)
        ev = SegmentCostEvaluator(ct, seg, cost_params(data))
        n = len(cur.qpu_of)
        pid = data.draw(st.integers(1, 3))
        cap = ct.qpu(pid).comp_capacity
        qubits = st.lists(st.integers(0, n - 1), unique=True, max_size=cap)
        target = members_mask(data.draw(qubits))
        # Sub- and supersets of the target first, so it may be answered from
        # entries stored by others.
        masks = []
        for extra in data.draw(st.lists(qubits, max_size=6)):
            mask = (target & data.draw(st.integers(0, (1 << n) - 1))) | members_mask(extra)
            if mask.bit_count() <= cap:
                masks.append(mask)
        for mask in masks + [target]:
            cost, weight, npairs = ev.layout_and_local(pid, mask)
            assert (cost, weight) == full_layout_and_local(ev, pid, mask)
            assert npairs == sum(1 for i, j in seg.pairs
                                 if mask >> i & 1 and mask >> j & 1)

    @pytest.mark.parametrize("coupling", ["line", "grid"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shape_entries_match_full_build(self, coupling, data):
        # Sparse pairs with counts 1 or 2 over 8 qubits, and 20 or more sets
        # on one evaluator: many cores are relabelings of cores seen before
        # and are answered from their shape's entry.
        n = 8
        pairs = {(i, j): data.draw(st.sampled_from([1, 2]))
                 for i, j in itertools.combinations(range(n), 2)
                 if data.draw(st.integers(0, 3)) == 0}
        k = data.draw(st.integers(2, 6))
        ev = SegmentCostEvaluator(one_qpu(coupling, k), seg_of(pairs), cost_params(data))
        sets = st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=k)
        assert_exact(ev, 1, map(members_mask, data.draw(st.lists(sets, min_size=20,
                                                                 max_size=30))))

    def test_evaluators_share_the_cluster_constants(self, monkeypatch):
        ct = two_qpu_line(3, 4)
        read = []
        build = dqcmap.cost._greedy_layout

        def recorded(m, flat, table, near, hub):
            read.append((table, hub))
            return build(m, flat, table, near, hub)

        monkeypatch.setattr(dqcmap.cost, "_greedy_layout", recorded)
        a = SegmentCostEvaluator(ct, seg_of({(0, 1): 1}), CostParams())
        b = SegmentCostEvaluator(ct, seg_of({(1, 2): 2}, index=2), CostParams(swap_cost=1.0))
        dist = ct.distances
        for ev in (a, b):
            for pid in (1, 2):
                read.clear()
                ev.layout_and_local(pid, 0b111)
                [(table, hub)] = read
                assert table is dist.intra[pid]
                assert hub == dist.hubs[pid]
        assert b._pen != a._pen  # pen depends on CostParams

    def test_partnerless_members_share_the_core_entry(self):
        ct = two_qpu_line(4, 4)
        # a pair without gates partners nobody and is not counted in P
        ev = SegmentCostEvaluator(ct, seg_of({(0, 1): 2, (1, 2): 1, (2, 3): 0}), CostParams())
        core = ev.layout_and_local(1, 0b0111)
        assert ev.layout_and_local(1, 0b1111) is core  # qubit 3 has no partner
        assert core[1:] == (3, 2)
        empty = ev.layout_and_local(1, 0b1001)  # neither has a partner in the set
        assert empty == (0.0, 0, 0)
        assert ev.layout_and_local(1, 0b1000) is empty
        for mask in (0b0111, 0b1111, 0b1001, 0b1000):
            assert ev.layout_and_local(1, mask)[:2] == full_layout_and_local(ev, 1, mask)

    def test_over_capacity_set_rejected_with_small_core(self):
        ct = two_qpu_line(2, 2)
        ev = SegmentCostEvaluator(ct, seg_of({(0, 1): 1}), CostParams())
        ev.layout_and_local(1, 0b011)
        with pytest.raises(InfeasibleError):
            ev.layout_and_local(1, 0b111)

    @pytest.mark.parametrize("coupling", ["line", "ring", "grid", "complete"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_pair_count_floor_never_exceeds_local_cost(self, coupling, data):
        k = data.draw(st.integers(2, 6))
        ct = one_qpu(coupling, k)
        pairs = {(i, j): data.draw(st.integers(1, 4))
                 for i in range(k) for j in range(i + 1, k) if data.draw(st.booleans())}
        seg = seg_of(pairs)
        cp = cost_params(data)
        for mask in range(1, 1 << k):
            inside = [c for (i, j), c in pairs.items() if mask >> i & 1 and mask >> j & 1]
            floor = SegmentCostEvaluator(ct, seg, cp)._floor(1, mask, sum(inside), len(inside))
            exact = SegmentCostEvaluator(ct, seg, cp).layout_and_local(1, mask)[0]
            # within the rounding margin delta subtracts from its bound
            assert floor <= exact + 1e-9 * (1.0 + exact)

    def test_floor_hand_case(self):
        # 4 all-to-all qubits on a 4-qubit line: the 6 physical pairs lie
        # 1, 1, 1, 2, 2 and 3 hops apart, so the 6 logical pairs pay
        # 0 + 0 + 0 + 1 + 1 + 2 = 4 swaps; the layout meets the floor
        ct = one_qpu("line", 4)
        cp = CostParams(cx_cost=1.5, swap_cost=2.0)
        ev = SegmentCostEvaluator(ct, seg_of({(i, j): 1 for i in range(4)
                                              for j in range(i + 1, 4)}), cp)
        assert ev._floor(1, 0b1111, 6, 6) == 1.5 * 6 + 4 * 2.0
        assert ev._floor(1, 0b1111, 6, 6) <= ev.layout_and_local(1, 0b1111)[0]
        assert ev._floor(1, 0b1111, 6, 6) == ev.layout_and_local(1, 0b1111)[0]  # cached now

    @pytest.mark.parametrize("coupling", ["line", "ring", "grid", "heavy_hex_like", "complete"])
    def test_rank_floor_never_below_edge_count_floor(self, coupling):
        # The P closest physical pairs pay sum (D[k] - 1) beyond cx; at most
        # E of them are coupling edges and every other one is a hop or more
        # beyond adjacency, so the old floor swap * max(0, P - E) is below.
        cp = CostParams(cx_cost=1.5, swap_cost=2.0)
        for k in range(2, 13):
            ct = one_qpu(coupling, k)
            table = ct.distances.intra[1]
            ranked = sorted(table[i][j] for i in range(k) for j in range(i + 1, k))
            edges = len(ct.qpu(1).coupling)
            ev = SegmentCostEvaluator(ct, seg_of({}), cp)
            for npairs in range(len(ranked) + 1):
                weight = 2 * npairs + 1
                floor = ev._floor(1, (1 << k) - 1, weight, npairs)
                hops = sum(d - 1 for d in ranked[:npairs])
                assert floor == cp.cx_cost * weight + cp.swap_cost * hops
                assert floor >= cp.cx_cost * weight + cp.swap_cost * max(0, npairs - edges)

    def test_layout_of_partnerless_set_starts_on_the_hub(self):
        ct = two_qpu_line(3, 3)
        dist = ct.distances
        # qubits 2 and 3, ranks 0 and 1, with no pair
        phys_of = dict(zip((2, 3), _greedy_layout(2, [], dist.intra[2], dist.near[2],
                                                  dist.hubs[2])))
        assert phys_of == {2: 1, 3: 0}  # the middle of the line is the hub


class TestGreedyLayout:
    """_greedy_layout in rank space, with its nearest-free pick for a member
    with one placed partner, against reference_greedy_layout, which scores
    every physical qubit on qubit labels and dicts."""

    @pytest.mark.parametrize("coupling", ["line", "ring", "grid", "heavy_hex_like", "complete"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, coupling, data):
        # Counts of 1 to 3 make weight ties, and unequal weights among two or
        # more placed partners; line, ring and grid maps make distance ties.
        # Sparse and dense pair sets give members with 0, 1 and 2 or more
        # placed partners when they are placed, several components, and
        # cores that fill the QPU, so the cursor meets taken indices.
        k = data.draw(st.integers(2, 16))
        ct = one_qpu(coupling, k)
        m = data.draw(st.integers(1, k))
        labels = sorted(data.draw(st.lists(st.integers(0, 60), unique=True,
                                           min_size=m, max_size=m)))
        density = data.draw(st.sampled_from([1, 2, 4]))
        flat = []
        partners = {q: [] for q in labels}
        for i in range(m):
            for j in range(i + 1, m):
                if data.draw(st.integers(0, 3)) < density:
                    c = data.draw(st.integers(1, 3))
                    flat += (i, j, c)
                    partners[labels[i]].append((labels[j], c))
                    partners[labels[j]].append((labels[i], c))
        dist = ct.distances
        got = _greedy_layout(m, flat, dist.intra[1], dist.near[1], dist.hubs[1])
        want = reference_greedy_layout(partners, dist.intra[1], dist.hubs[1])
        assert got == [want[q] for q in labels]


class TestCoreShape:
    """A core missing from the cache is looked up by its shape, its pairs
    in rank space with their counts; a layout is built once per shape."""

    @pytest.fixture
    def calls(self, monkeypatch) -> list[int]:
        """One entry per _greedy_layout call."""
        calls = []
        build = dqcmap.cost._greedy_layout

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(dqcmap.cost, "_greedy_layout", counted)
        return calls

    def test_relabeled_core_builds_once(self, calls):
        # {0, 1, 2} and {3, 5, 8} both have pairs (0, 1, 2), (1, 2, 1) in rank space
        ct = two_qpu_line(5, 5)
        ev = SegmentCostEvaluator(ct, seg_of({(0, 1): 2, (1, 2): 1, (3, 5): 2, (5, 8): 1}),
                                  CostParams())
        first, second = members_mask([0, 1, 2]), members_mask([3, 5, 8])
        assert ev.layout_and_local(1, first) == ev.layout_and_local(1, second)
        assert len(calls) == 1
        ev.layout_and_local(2, second)  # the QPU is part of the shape
        assert len(calls) == 2
        assert_exact(ev, 1, [first, second])
        assert_exact(ev, 2, [second])

    def test_isomorphic_core_in_another_order_builds(self, calls):
        # a path with its middle member ranked 1, then ranked 0
        ev = SegmentCostEvaluator(one_qpu("line", 4), seg_of({(0, 1): 1, (1, 2): 1,
                                                              (3, 4): 1, (3, 5): 1}),
                                  CostParams())
        masks = [members_mask([0, 1, 2]), members_mask([3, 4, 5])]
        assert_exact(ev, 1, masks)
        assert len(calls) == 2

    def test_same_pairs_other_counts_build(self, calls):
        ev = SegmentCostEvaluator(one_qpu("line", 3), seg_of({(0, 1): 1, (1, 2): 1,
                                                              (3, 4): 1, (4, 5): 2}),
                                  CostParams())
        assert_exact(ev, 1, [members_mask([0, 1, 2]), members_mask([3, 4, 5])])
        assert len(calls) == 2

    def test_large_count_takes_the_tuple_key(self, calls):
        cp = CostParams(cx_cost=0.1, swap_cost=0.7)
        ev = SegmentCostEvaluator(one_qpu("line", 4), seg_of({(0, 1): 300, (0, 2): 1,
                                                              (1, 2): 5, (3, 4): 300,
                                                              (3, 5): 1, (4, 5): 5}), cp)
        assert_exact(ev, 1, [members_mask([0, 1, 2]), members_mask([3, 4, 5])])
        assert len(calls) == 1
        assert [type(key[2]) for key in ev._shape_cache] == [tuple]
