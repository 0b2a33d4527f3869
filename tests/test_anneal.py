"""Annealing chain, exhaustive reference, and the compile pipeline."""
from __future__ import annotations

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcmap import anneal
from dqcmap.anneal import (
    AnnealParams,
    TraceEntry,
    _draws,
    anneal_segment,
    calibrate_t0,
    compile,
    replay_epr,
)
from dqcmap.circuit import Circuit, layerize
from dqcmap.cost import CostParams, SegmentCostEvaluator, qpu_masks
from dqcmap.errors import InfeasibleError
from dqcmap.harness import render_json, run_map
from dqcmap.hardware import build_cluster
from dqcmap.placement import Assignment, random_placement
from dqcmap.segmentation import Segment, segment

from dqcmap.seeding import split_seed

from conftest import (
    accept_probability,
    apply_moved,
    brute_force_optimum,
    chain_lists,
    cost_params,
    coupled_cluster,
    cx_chain,
    line_coupling,
    propose,
    random_case,
    reference_draws,
    total,
    traced_temperatures,
    triangle_cluster,
    two_qpu_line,
)

CHAIN = cx_chain(4, [(0, 1), (1, 2), (2, 3)])


def seg_of(pairs: dict, index: int = 1) -> Segment:
    return Segment(index=index, from_layer=1, to_layer=2,
                   pairs=dict(pairs))


class TestSchedule:
    def test_hyperbolic_value(self):
        temps = traced_temperatures(100.0, 0.1, 11)
        assert temps[10] == pytest.approx(50.0)
        assert temps[0] == pytest.approx(100.0)

    def test_strictly_decreasing(self):
        temps = traced_temperatures(7.0, 0.05, 50)
        assert len(temps) == 50
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_accept_probability(self):
        assert accept_probability(-2.0, 1.0) == 1.0
        assert accept_probability(0.0, 1.0) == 1.0
        assert accept_probability(2.0, 0.5) == pytest.approx(math.exp(-4.0))
        with pytest.raises(ValueError):
            accept_probability(1.0, 0.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AnnealParams(t0=0.0)
        with pytest.raises(ValueError):
            AnnealParams(cooling_rate=-1.0)
        with pytest.raises(ValueError):
            AnnealParams(iters_per_segment=0)

    @pytest.mark.parametrize("field", ["t0", "cooling_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            AnnealParams(**{field: value})


class TestPropose:
    """The annealer's move draw, anneal._draws, on the lists it reads."""

    def test_moves_stay_feasible(self):
        ct = two_qpu_line(2, 3)
        lists = chain_lists(random_placement(4, ct, seed=2), ct)
        qpu_of, masks, loads, caps, outside, dests = lists
        drawn = 0
        for moved in islice(_draws(random.Random(1), qpu_of, outside, dests), 500):
            q, frm, to = moved[0]
            assert frm == qpu_of[q] != to
            if len(moved) == 1:
                assert loads[to] < caps[to]
            else:
                qb = moved[1][0]
                assert moved[1] == (qb, to, frm) and qpu_of[qb] == to
            apply_moved(moved, *lists)
            assert masks == qpu_masks(qpu_of, ct.n_qpus)
            for p in (1, 2):
                assert masks[p].bit_count() == loads[p] <= caps[p]
            drawn += 1
        assert drawn == 500

    def test_kind_mix_matches_weights(self):
        # both kinds always available here; equal weights give p = 1/2,
        # checked against a 3 sigma binomial band
        ct = two_qpu_line(3, 3)
        qpu_of, _, _, _, outside, dests = chain_lists(Assignment((1, 1, 2, 2)), ct)
        draws = _draws(random.Random(11), qpu_of, outside, dests)
        n_draws = 10_000
        relocs = sum(len(moved) == 1 for moved in islice(draws, n_draws))
        sigma = math.sqrt(0.25 / n_draws)
        assert abs(relocs / n_draws - 0.5) <= 3 * sigma

    def test_full_cluster_falls_back_to_swap(self):
        ct = two_qpu_line(2, 2)
        qpu_of, _, _, _, outside, dests = chain_lists(Assignment((1, 1, 2, 2)), ct)
        draws = _draws(random.Random(5), qpu_of, outside, dests)
        kinds = [len(moved) for moved in islice(draws, 100)]
        assert kinds == [2] * 100

    def test_swap_partner_matches_list_scan(self):
        # The partner is the k-th qubit on another QPU in ascending order,
        # drawn by the same rng calls as indexing a list of those qubits;
        # the relocation branch matches its list scan too. The small QPUs
        # fill up, so both kinds and the fallback occur.
        ct = two_qpu_line(6, 7)
        for seed in range(20):
            lists = chain_lists(random_placement(12, ct, seed=seed), ct)
            qpu_of, masks, loads, caps, outside, dests = lists
            ref = random.Random(seed)
            drawn = 0
            for moved in islice(_draws(random.Random(seed), qpu_of, outside, dests), 50):
                assert moved == propose(qpu_of, caps, ref)
                apply_moved(moved, *lists)
                drawn += 1
            assert drawn == 50

    def test_single_qpu_has_no_moves(self):
        ct = build_cluster(
            [{"name": "solo", "comp_capacity": 4,
              "coupling": line_coupling(4), "comm_qubits": 1}], [])
        qpu_of, _, _, _, outside, dests = chain_lists(Assignment((1, 1, 1)), ct)
        solo = _draws(random.Random(0), qpu_of, outside, dests)
        assert list(islice(solo, 1)) == []
        qpu_of, _, _, _, outside, dests = chain_lists(Assignment(()), two_qpu_line(2, 2))
        empty = _draws(random.Random(0), qpu_of, outside, dests)
        assert list(islice(empty, 1)) == []

    def test_calibration_positive_and_flat_fallback(self):
        ct = two_qpu_line(3, 3)
        qpu_of, masks, _, _, outside, dests = chain_lists(Assignment((1, 1, 2, 2)), ct)

        def t0(ev):
            draws = _draws(random.Random(0), qpu_of, outside, dests)
            return calibrate_t0(ev, qpu_of, masks, ev.local_costs(masks), draws)

        assert t0(SegmentCostEvaluator(ct, seg_of({}), CostParams())) == 1.0
        busy = SegmentCostEvaluator(ct, seg_of({(0, 2): 3, (1, 3): 1}), CostParams())
        assert t0(busy) > 0.0


def reference_anneal(init, ev, ap, seed, trace):
    """anneal_segment with the list-scan draw of conftest.propose, the exact
    dE of every move and no early rejection: the oracle for the
    bound-rejecting loop."""
    lists = chain_lists(init, ev.cluster)
    qpu_of, masks, loads, caps, outside, dests = lists
    cur_cost = ev.breakdown(init).e_total
    best, best_cost = list(qpu_of), cur_cost
    iters = ap.iters_per_segment
    rate = ap.cooling_rate if ap.cooling_rate is not None else 10.0 / iters
    rng = random.Random(split_seed(seed, "chain"))
    t0 = ap.t0
    if t0 is None:
        t0_rng = random.Random(split_seed(seed, "t0"))
        t0 = calibrate_t0(ev, qpu_of, masks, ev.local_costs(masks),
                          iter(lambda: propose(qpu_of, caps, t0_rng), None))
    for k in range(iters):
        moved = propose(qpu_of, caps, rng)
        if moved is None:
            break
        temperature = t0 / (1.0 + rate * k)
        de = ev.delta(qpu_of, masks, ev.local_costs(masks), moved)
        if de <= 0:
            accepted, draw = True, None
        else:
            draw = rng.random()
            accepted = draw < math.exp(-de / temperature)
        trace.append(TraceEntry(k=k, temperature=temperature, delta_e=de,
                                draw=draw, accepted=accepted))
        if accepted:
            apply_moved(moved, *lists)
            cur_cost += de
            if cur_cost < best_cost:
                best_cost, best = cur_cost, list(qpu_of)
    final = Assignment(tuple(best))
    return final, ev.breakdown(final)


def loop_against_propose(init, ct, seg, ap, seed, seen):
    """Run anneal_segment, recording the transfers it hands ev.delta, and
    replay the chain with the list-scan propose on a twin rng: each move
    propose draws must be the loop's, and the twin takes a draw wherever the
    trace has one. seen counts the kinds of draw: relocations, relocations
    that fell back to a swap, swaps, and draws that found no move."""
    ev = SegmentCostEvaluator(ct, seg, CostParams())
    handed = []
    exact = ev.delta

    def recording(qpu_of, masks, local, moved, reject=None):
        handed.append(moved)
        return exact(qpu_of, masks, local, moved, reject)

    ev.delta = recording
    trace: list[TraceEntry] = []
    anneal_segment(init, ev, ap, seed=seed, trace=trace)
    assert len(handed) == len(trace)
    lists = chain_lists(init, ct)
    qpu_of, masks, loads, caps, outside, dests = lists
    twin = random.Random(split_seed(seed, "chain"))
    for moved, entry in zip(handed, trace):
        peek = random.Random()
        peek.setstate(twin.getstate())
        assert propose(qpu_of, caps, twin) == moved
        if len(moved) == 1:
            seen["relocate"] += 1
        else:
            seen["fallback" if peek.random() < 0.5 else "swap"] += 1
        if entry.draw is not None:
            assert twin.random() == entry.draw
        if entry.accepted:
            apply_moved(moved, *lists)
    if len(trace) < ap.iters_per_segment:
        assert propose(qpu_of, caps, twin) is None
        seen["none"] += 1


class TestLoopDraws:
    def test_loop_proposes_what_propose_proposes(self):
        seen = dict.fromkeys(["relocate", "fallback", "swap", "none"], 0)
        solo = build_cluster(
            [{"name": "solo", "comp_capacity": 4,
              "coupling": line_coupling(4), "comm_qubits": 1}], [])
        cases = [
            # a little slack: relocations, and swaps when both QPUs fill up
            (random_placement(12, two_qpu_line(6, 7), seed=s), two_qpu_line(6, 7),
             {(i, (i * 5 + 3) % 12): 1 + i % 3 for i in range(12) if i != (i * 5 + 3) % 12})
            for s in range(4)
        ] + [
            # full QPUs: every relocation falls back to a swap
            (Assignment((1, 2, 1, 2)), two_qpu_line(2, 2), {(0, 1): 2, (2, 3): 1}),
            # one pair that joins on one QPU, after which a swap finds no one
            (Assignment((1, 2)), two_qpu_line(3, 3), {(0, 1): 4}),
            # a single QPU or no qubits: no move at all
            (Assignment((1, 1, 1)), solo, {(0, 1): 1}),
            (Assignment(()), two_qpu_line(2, 2), {}),
        ]
        for i, (init, ct, pairs) in enumerate(cases):
            ap = AnnealParams(t0=2.0, cooling_rate=0.05, iters_per_segment=200)
            loop_against_propose(init, ct, seg_of({tuple(sorted(p)): c
                                                   for p, c in pairs.items()}), ap, i, seen)
        assert all(seen.values()), seen


class TestReferenceDraws:
    def test_draws_match_mask_reference(self):
        # The draw from the chain's outside and destination lists against the
        # mask-based reference on a twin rng, both reading one chain whose
        # moves are accepted at random: the same transfers, the same stop and
        # the same final rng state.
        solo = build_cluster(
            [{"name": "solo", "comp_capacity": 4,
              "coupling": line_coupling(4), "comm_qubits": 1}], [])
        cases = [
            (random_placement(12, two_qpu_line(6, 7), seed=s), two_qpu_line(6, 7))
            for s in range(3)
        ] + [
            (random_placement(16, triangle_cluster(), seed=5), triangle_cluster()),
            (random_placement(5, triangle_cluster(), seed=6), triangle_cluster()),
            # full QPUs: every relocation falls back to a swap
            (Assignment((1, 2, 1, 2)), two_qpu_line(2, 2)),
            # every qubit on one QPU: a swap finds no one until one moves out
            (Assignment((1, 1, 1)), two_qpu_line(3, 3)),
            (Assignment((2, 2, 2, 2, 2, 2)), triangle_cluster()),
            # a single QPU or no qubits: no move at all
            (Assignment((1, 1, 1)), solo),
            (Assignment(()), two_qpu_line(2, 2)),
        ]
        kinds = dict.fromkeys(["relocate", "swap", "stop", "accepted"], 0)
        for i, (init, ct) in enumerate(cases):
            lists = chain_lists(init, ct)
            qpu_of, masks, loads, caps, outside, dests = lists
            ours_rng, ref_rng = random.Random(i), random.Random(i)
            ours = _draws(ours_rng, qpu_of, outside, dests)
            ref = reference_draws(ref_rng, qpu_of, masks, loads, caps)
            coin = random.Random(100 + i)
            for _ in range(300):
                moved = next(ours, None)
                assert moved == next(ref, None)
                if moved is None:
                    kinds["stop"] += 1
                    break
                kinds["relocate" if len(moved) == 1 else "swap"] += 1
                if coin.random() < 0.5:
                    apply_moved(moved, *lists)
                    kinds["accepted"] += 1
            assert ours_rng.getstate() == ref_rng.getstate()
        assert all(kinds.values()), kinds


class TestChainState:
    @pytest.mark.parametrize("coupling", ["line", "ring", "grid", "heavy_hex_like", "complete"])
    @pytest.mark.parametrize("n", [9, 15])
    def test_lists_stay_current(self, coupling, n, monkeypatch):
        # Before every move of the chain and after its last one, the lists
        # the annealer keeps beside qpu_of equal what a scan of the
        # assignment gives: outside[p] the qubits not on p, dests[p] the
        # other QPUs with room, and local[p] the (cost, W, P) of masks[p].
        ct = coupled_cluster(coupling, (4, 6, 8))
        rng = random.Random(n)
        pairs = {(i, j): rng.randint(1, 3)
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        ev = SegmentCostEvaluator(ct, seg_of(pairs), CostParams(),
                                  prev=random_placement(n, ct, seed=n + 1))
        seen = {}
        draws = anneal._draws

        def spy(rng, qpu_of, outside, dests):
            seen.update(qpu_of=qpu_of, outside=outside, dests=dests)
            return draws(rng, qpu_of, outside, dests)

        def check():
            qpu_of, masks, local = seen["qpu_of"], seen["masks"], seen["local"]
            assert masks == qpu_masks(qpu_of, ct.n_qpus)
            for p in range(1, ct.n_qpus + 1):
                assert seen["outside"][p] == [q for q in range(n) if qpu_of[q] != p]
                assert seen["dests"][p] == [d for d in range(1, ct.n_qpus + 1)
                                            if d != p and qpu_of.count(d) < ct.caps[d]]
                assert local[p] == ev.layout_and_local(p, masks[p])

        exact = ev.delta
        handed, slack = [], set()

        def checking(qpu_of, masks, local, moved, reject=None):
            seen.update(masks=masks, local=local)
            check()
            handed.append(moved)
            slack.add(tuple(map(tuple, seen["dests"])))
            return exact(qpu_of, masks, local, moved, reject)

        monkeypatch.setattr(anneal, "_draws", spy)
        ev.delta = checking
        trace: list[TraceEntry] = []
        anneal_segment(random_placement(n, ct, seed=n), ev,
                       AnnealParams(cooling_rate=0.01, iters_per_segment=400),
                       seed=n, trace=trace)
        check()
        # calibration's 100 moves come first; both kinds are accepted, and
        # the QPUs with room change along the chain
        kinds = {len(moved) for moved, e in zip(handed[100:], trace) if e.accepted}
        assert len(trace) == 400 and kinds == {1, 2} and len(slack) > 1


class TestIntegerDraw:
    def test_getrandbits_loop_is_randrange(self):
        # _draws inlines rng.randrange(m) as CPython's
        # _randbelow_with_getrandbits; if CPython changes randrange, this
        # fails rather than the plans moving unexplained.
        ms = [*range(1, 4097), *(2 ** k + d for k in range(1, 71) for d in (-1, 1))]
        for seed in range(4):
            loop, ref = random.Random(seed), random.Random(seed)
            for m in ms:
                k = m.bit_length()
                r = loop.getrandbits(k)
                while r >= m:
                    r = loop.getrandbits(k)
                assert r == ref.randrange(m)
            assert loop.getstate() == ref.getstate()


class TestAnnealSegment:
    def _instance(self):
        ct = two_qpu_line(3, 3)
        seg = seg_of({(0, 1): 3, (1, 2): 2, (2, 3): 4, (3, 4): 1, (0, 4): 2})
        init = Assignment((1, 2, 1, 2, 1))
        return ct, seg, init

    def test_never_worse_than_init(self):
        ct, seg, init = self._instance()
        cp = CostParams()
        ap = AnnealParams(iters_per_segment=300)
        final, bd = anneal_segment(init, SegmentCostEvaluator(ct, seg, cp), ap, seed=4)
        assert bd.e_total <= total(init, seg, None, ct, cp).e_total + 1e-9

    def test_deterministic(self):
        ct, seg, init = self._instance()
        ap = AnnealParams(iters_per_segment=300)
        one = anneal_segment(init, SegmentCostEvaluator(ct, seg, CostParams()), ap, seed=4)
        two = anneal_segment(init, SegmentCostEvaluator(ct, seg, CostParams()), ap, seed=4)
        assert one == two

    def test_returned_cost_is_exact(self):
        ct, seg, init = self._instance()
        prev = Assignment((1, 1, 1, 2, 2))
        ap = AnnealParams(iters_per_segment=300)
        ev = SegmentCostEvaluator(ct, seg, CostParams(), prev=prev)
        final, bd = anneal_segment(init, ev, ap, seed=9)
        assert bd == total(final, seg, prev, ct, CostParams())

    def test_single_qpu_noop(self):
        ct = build_cluster(
            [{"name": "solo", "comp_capacity": 6,
              "coupling": line_coupling(6), "comm_qubits": 1}], [])
        seg = seg_of({(0, 1): 2})
        init = Assignment((1, 1, 1))
        final, bd = anneal_segment(init, SegmentCostEvaluator(ct, seg, CostParams()),
                                   AnnealParams(iters_per_segment=50))
        assert final.qpu_of == init.qpu_of

    def test_no_qubits_noop(self):
        # the default iteration count, 500 per qubit, is 0 here
        ev = SegmentCostEvaluator(two_qpu_line(2, 2), seg_of({}), CostParams())
        trace: list[TraceEntry] = []
        final, bd = anneal_segment(Assignment(()), ev, AnnealParams(), trace=trace)
        assert final == Assignment(()) and trace == []
        assert bd.e_total == 0.0

    def test_trace_obeys_acceptance_rule(self):
        ct, seg, init = self._instance()
        ap = AnnealParams(t0=40.0, cooling_rate=0.02, iters_per_segment=500)
        trace: list[TraceEntry] = []
        anneal_segment(init, SegmentCostEvaluator(ct, seg, CostParams()), ap, seed=7,
                       trace=trace)
        assert len(trace) == 500
        uphill_acc = uphill_rej = 0
        for e in trace:
            assert e.temperature == pytest.approx(40.0 / (1 + 0.02 * e.k))
            if e.delta_e <= 0:
                assert e.accepted and e.draw is None
            else:
                p = math.exp(-e.delta_e / e.temperature)
                assert e.accepted == (e.draw < p)
                uphill_acc += e.accepted
                uphill_rej += not e.accepted
        # the band must actually be exercised on both sides
        assert uphill_acc > 0 and uphill_rej > 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_decisions_as_exact_reference(self, data):
        # Early rejection on the lower bound changes no draw, no decision and
        # no result; only a bound-rejected step records the bound it used.
        # Extra free slots give relocations a choice of destinations.
        spare = data.draw(st.sampled_from([1, 2, 4]))
        ct, seg, init, prev = random_case(data, with_prev=data.draw(st.booleans()), spare=spare)
        cp = cost_params(data)
        ap = AnnealParams(
            iters_per_segment=data.draw(st.integers(50, 400)),
            t0=data.draw(st.sampled_from([None, 0.05, 1.0, 20.0])))
        seed = data.draw(st.integers(0, 10_000))
        ours, ref = [], []
        got = anneal_segment(init, SegmentCostEvaluator(ct, seg, cp, prev=prev), ap,
                             seed=seed, trace=ours)
        want = reference_anneal(init, SegmentCostEvaluator(ct, seg, cp, prev=prev), ap,
                                seed, ref)
        assert got == want
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            assert (a.k, a.temperature, a.draw, a.accepted) == (b.k, b.temperature, b.draw, b.accepted)
            if a.delta_e != b.delta_e:  # rejected on the bound
                assert not a.accepted and 0 < a.delta_e <= b.delta_e

    def test_zero_temperature_rejects_uphill(self):
        # 5e-324 / (1 + 1 * k) rounds to 0.0 from k = 1 on: no division by
        # zero, every uphill move is rejected and still takes its draw
        ct, seg, init = self._instance()
        ap = AnnealParams(t0=5e-324, cooling_rate=1.0, iters_per_segment=300)
        trace: list[TraceEntry] = []
        final, bd = anneal_segment(init, SegmentCostEvaluator(ct, seg, CostParams()), ap,
                                   seed=3, trace=trace)
        assert len(trace) == 300
        assert all(e.temperature == 0.0 for e in trace[1:])
        uphill = [e for e in trace if e.delta_e > 0]
        assert uphill and all(e.draw is not None and not e.accepted for e in uphill)
        assert all(e.accepted and e.draw is None for e in trace if e.delta_e <= 0)
        assert bd.e_total <= total(init, seg, None, ct, CostParams()).e_total

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_improvement_holds_for_any_seed(self, seed):
        ct, seg, init = self._instance()
        cp = CostParams()
        ap = AnnealParams(iters_per_segment=150)
        _, bd = anneal_segment(init, SegmentCostEvaluator(ct, seg, cp), ap, seed=seed)
        assert bd.e_total <= total(init, seg, None, ct, cp).e_total + 1e-9


class TestBruteForce:
    def test_matches_chain_enumeration(self):
        ct = two_qpu_line(2, 3)
        cp = CostParams()
        lc = layerize(CHAIN)
        segs = segment(lc)
        assert len(segs) == 2
        plan, value = brute_force_optimum(CHAIN, ct, cp)

        def feasible():
            for bits in range(16):
                qo = tuple(1 if bits & (1 << q) else 2 for q in range(4))
                if qo.count(1) <= 2 and qo.count(2) <= 3:
                    yield qo

        best = math.inf
        for a0 in feasible():
            c0 = total(Assignment(a0), segs[0], None, ct, cp).e_total
            for a1 in feasible():
                c1 = total(Assignment(a1), segs[1], Assignment(a0), ct, cp).e_total
                best = min(best, c0 + c1)
        assert value == pytest.approx(best)

        replayed = sum(
            total(step, segs[i], plan[i - 1] if i else None, ct, cp).e_total
            for i, step in enumerate(plan))
        assert replayed == pytest.approx(value)

    def test_annealer_cannot_beat_it(self):
        ct = two_qpu_line(2, 3)
        cp = CostParams()
        _, value = brute_force_optimum(CHAIN, ct, cp)
        plan = compile(CHAIN, ct, seed=3, cost_params=cp)
        assert plan.total_cost >= value - 1e-9

    def test_size_refusals(self):
        big = cx_chain(11, [(0, 1)])
        with pytest.raises(ValueError):
            brute_force_optimum(big, two_qpu_line(6, 6), CostParams())
        wide = build_cluster(
            [{"name": f"p{i}", "comp_capacity": 2,
              "coupling": line_coupling(2), "comm_qubits": 1} for i in range(4)],
            [{"a": i, "b": i + 1, "cost_factor": 1.0} for i in range(1, 4)],
        )
        with pytest.raises(ValueError):
            brute_force_optimum(CHAIN, wide, CostParams())
        with pytest.raises(InfeasibleError):
            brute_force_optimum(CHAIN, two_qpu_line(1, 2), CostParams())

    def test_empty_circuit(self):
        empty = Circuit(name="empty", n_qubits=3, gates=())
        plan, value = brute_force_optimum(empty, two_qpu_line(2, 2), CostParams())
        assert plan == [] and value == 0.0


class TestCompile:
    def test_deterministic_for_seed(self):
        ct = two_qpu_line(3, 3)
        one = compile(CHAIN, ct, seed=12)
        two = compile(CHAIN, ct, seed=12)
        assert one.steps == two.steps
        assert one.totals == two.totals
        assert one.per_link_epr == two.per_link_epr

    def test_totals_sum_steps(self):
        ct = two_qpu_line(3, 3)
        plan = compile(CHAIN, ct, seed=5)
        for name in ("e_inter", "e_local", "e_move", "e_total", "epr_pairs"):
            assert getattr(plan.totals, name) == pytest.approx(
                sum(getattr(s.costs, name) for s in plan.steps))
        assert plan.total_cost == plan.totals.e_total

    def test_epr_total_matches_replay(self):
        ct = two_qpu_line(2, 3)
        plan = compile(CHAIN, ct, seed=8)
        sw = replay_epr(plan, ct)
        assert plan.per_link_epr == sw.per_link_epr
        assert sum(plan.per_link_epr.values()) == plan.totals.epr_pairs

    def test_first_segment_pays_no_move(self):
        ct = two_qpu_line(3, 3)
        plan = compile(CHAIN, ct, seed=1)
        assert plan.steps[0].costs.e_move == 0.0

    def test_no_anneal_static_chain(self):
        ct = two_qpu_line(3, 3)
        plan = compile(CHAIN, ct, seed=0, do_anneal=False)
        first = plan.steps[0].assignment.qpu_of
        assert all(s.assignment.qpu_of == first for s in plan.steps)
        assert plan.totals.e_move == 0.0

    def test_random_segmentation_matches_pattern_count(self):
        # The random-segmentation arm cuts as many segments as the pattern
        # segmentation finds, at its own boundaries, covering every layer.
        ct = two_qpu_line(3, 3)
        depth = layerize(CHAIN).depth
        pattern = segment(layerize(CHAIN))
        assert len(pattern) == 2
        for seed in range(5):
            plan = compile(CHAIN, ct, seed=seed, segmentation_mode="random")
            assert len(plan.steps) == len(pattern)
            spans = [(s.segment.from_layer, s.segment.to_layer) for s in plan.steps]
            assert spans[0][0] == 1 and spans[-1][1] == depth
            assert all(a[1] + 1 == b[0] for a, b in zip(spans, spans[1:]))

    def test_empty_circuit_plan(self):
        # a circuit of no gates reports its float totals as 0.0, not the int 0
        empty = Circuit(name="empty", n_qubits=3, gates=())
        ct = two_qpu_line(2, 2)
        for initial in ("cluster", "random"):
            plan = compile(empty, ct, seed=0, initial=initial)
            assert plan.steps == () and plan.per_link_epr == {(1, 2): 0}
            for name in ("e_inter", "e_local", "e_move", "e_total"):
                value = getattr(plan.totals, name)
                assert type(value) is float and value == 0.0
            assert type(plan.totals.epr_pairs) is int and plan.totals.epr_pairs == 0
        assert '"e_total": 0.0' in render_json(run_map(empty, ct, seed=0))

    def test_bad_arguments(self):
        ct = two_qpu_line(3, 3)
        with pytest.raises(ValueError):
            compile(CHAIN, ct, segmentation_mode="layered")
        with pytest.raises(ValueError):
            compile(CHAIN, ct, initial="greedy")
        with pytest.raises(InfeasibleError):
            compile(CHAIN, two_qpu_line(1, 2), seed=0)

    def test_random_initial_reproducible(self):
        ct = two_qpu_line(3, 3)
        one = compile(CHAIN, ct, seed=6, initial="random", do_anneal=False)
        two = compile(CHAIN, ct, seed=6, initial="random", do_anneal=False)
        assert one.steps[0].assignment == two.steps[0].assignment
