"""Shipped acceptance checks, one test per criterion.

Each test records a one-line verdict through the `acceptance` fixture (the
summary hook prints them after the run) and enforces its runtime budget.
All instances and seeds are frozen so the suite is deterministic.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from itertools import islice

from dqcmap.anneal import _draws, compile, replay_epr
from dqcmap.bench import gen_adder, gen_qaoa, gen_qft
from dqcmap.circuit import Circuit, GateOp, layerize
from dqcmap.cost import CostParams, SegmentCostEvaluator
from dqcmap.harness import render_json, run_ablate, run_map, run_sweep_ratio
from dqcmap.hardware import TOPOLOGY_KINDS, build_cluster, gen_topology
from dqcmap.placement import (
    Assignment,
    InteractionGraph,
    build_graph,
    edge_cut,
    random_placement,
)
from dqcmap.segmentation import Segment, jaccard, segment

from conftest import (
    accept_probability,
    apply_moved,
    brute_force_optimum,
    chain_lists,
    cx_chain,
    density,
    e_inter,
    e_local,
    e_move,
    line_coupling,
    pair_weight,
    reference_replay,
    total,
    traced_temperatures,
    triangle_cluster,
    two_qpu_line,
    windowed_density,
)


def close(got: float, want: float) -> bool:
    return got == want or math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)


def seg_of(pairs: dict, index: int = 1) -> Segment:
    return Segment(index=index, from_layer=1, to_layer=2,
                   pairs=dict(pairs))


def line3_cluster():
    return build_cluster(
        [{"name": f"p{i}", "comp_capacity": 3,
          "coupling": line_coupling(3), "comm_qubits": 1} for i in range(3)],
        [{"a": 1, "b": 2, "cost_factor": 1.0},
         {"a": 2, "b": 3, "cost_factor": 2.0}],
    )


def plan_is_feasible(plan, cluster) -> bool:
    caps = cluster.caps[1:]
    for step in plan.steps:
        loads = [0] * cluster.n_qpus
        for p in step.assignment.qpu_of:
            if not 1 <= p <= cluster.n_qpus:
                return False
            loads[p - 1] += 1
        if any(load > cap for load, cap in zip(loads, caps)):
            return False
    return True


def test_criterion_1_formula_suite(acceptance):
    start = time.perf_counter()
    chain = cx_chain(4, [(0, 1), (1, 2), (2, 3)])
    lc = layerize(chain)
    cp = CostParams()

    g_decay = build_graph(
        [seg_of({(0, 1): 2}, 1), seg_of({(0, 1): 3}, 2)], math.log(2), 2)
    g_flat = build_graph(
        [seg_of({(0, 1): 2}, 1), seg_of({(0, 1): 3}, 2)], 0.0, 2)

    solo = build_cluster(
        [{"name": "solo", "comp_capacity": 3,
          "coupling": line_coupling(3), "comm_qubits": 1}], [])
    l3 = line3_cluster()
    remote_seg = seg_of({(0, 1): 5})
    remote_bd = total(Assignment((1, 3)), remote_seg, Assignment((1, 1)), l3, cp)
    weighted = total(Assignment((1, 3)), remote_seg, Assignment((1, 1)), l3,
                     CostParams(gamma1=2.0, gamma2=0.5, gamma3=4.0))

    checks = [
        ("density q0 l1", density(lc, 0, 1), 1.0),
        ("density q0 l3", density(lc, 0, 3), 1 / 3),
        ("density q1 l3", density(lc, 1, 3), 2 / 3),
        ("density q3 l2", density(lc, 3, 2), 0.0),
        ("windowed q0 l2 w1", windowed_density(lc, 0, 2, 1), 11 / 18),
        ("jaccard overlap", jaccard(frozenset({0, 1}), frozenset({1, 2})), 1 / 3),
        ("jaccard empty", jaccard(frozenset(), frozenset()), 1.0),
        ("jaccard disjoint", jaccard(frozenset({0}), frozenset({1})), 0.0),
        ("graph decayed", pair_weight(g_decay, 0, 1), 1.75),
        ("graph undecayed", pair_weight(g_flat, 0, 1), 5.0),
        ("cut split", edge_cut(InteractionGraph(2, {(0, 1): 5.0}),
                               Assignment((1, 2))), 5.0),
        ("cut together", edge_cut(InteractionGraph(2, {(0, 1): 5.0}),
                                  Assignment((1, 1))), 0.0),
        ("local greedy line", e_local(Assignment((1, 1, 1)),
                                      seg_of({(0, 1): 10, (1, 2): 10, (0, 2): 1}),
                                      solo, cp), 24.0),
        ("inter two hops", e_inter(Assignment((1, 3)), remote_seg, l3, cp), 75.0),
        ("move two hops", e_move(Assignment((1, 1)), Assignment((1, 3)), l3, cp), 15.0),
        ("move no prev", e_move(None, Assignment((1, 3)), l3, cp), 0.0),
        ("total unit gammas", remote_bd.e_total, 90.0),
        ("total epr pairs", float(remote_bd.epr_pairs), 12.0),
        ("total weighted", weighted.e_total, 210.0),
        ("accept uphill", accept_probability(2.0, 0.5), math.exp(-4.0)),
        ("accept downhill", accept_probability(-1.0, 1.0), 1.0),
        ("accept flat", accept_probability(0.0, 1.0), 1.0),
        ("cooling k10", traced_temperatures(100.0, 0.1, 11)[10], 50.0),
        ("cooling k0", traced_temperatures(8.0, 0.5, 1)[0], 8.0),
    ]
    bad = [(name, got, want) for name, got, want in checks if not close(got, want)]
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < 5.0
    acceptance(1, passed,
               f"{len(checks)} formula values exact to 1e-9 rel, "
               f"{len(bad)} mismatched, {elapsed:.2f}s (budget 5s)")
    assert not bad, bad
    assert elapsed < 5.0


def _oracle_instance(rng: random.Random):
    """A small 2-QPU instance whose interaction pattern yields <= 3 segments."""
    while True:
        n = rng.randint(4, 8)
        n_gates = rng.randint(8, 30)
        gates = []
        for _ in range(n_gates):
            if rng.random() < 0.7:
                a, b = rng.sample(range(n), 2)
                gates.append(GateOp("cx", (a, b), ()))
            else:
                gates.append(GateOp("h", (rng.randrange(n),), ()))
        circ = Circuit(n_qubits=n, gates=tuple(gates), name=f"rand{n}")
        if len(segment(layerize(circ))) > 3:
            continue
        ca = (n + 1) // 2 + rng.randint(0, 1)
        cb = max(n - ca + rng.randint(0, 1), 1)
        if ca + cb < n:
            continue
        cluster = build_cluster(
            [{"name": "a", "comp_capacity": ca,
              "coupling": line_coupling(ca), "comm_qubits": 1},
             {"name": "b", "comp_capacity": cb,
              "coupling": line_coupling(cb), "comm_qubits": 1}],
            [{"a": 1, "b": 2, "cost_factor": round(rng.uniform(0.5, 2.0), 2)}])
        return circ, cluster


def test_criterion_2_oracle_equivalence(acceptance):
    start = time.perf_counter()
    rng = random.Random(20260819)
    cp = CostParams()
    good = 0
    worst = 0.0
    for _ in range(20):
        circ, cluster = _oracle_instance(rng)
        _, opt = brute_force_optimum(circ, cluster, cp)
        per_seed = [
            compile(circ, cluster, seed=s).total_cost for s in range(5)
        ]
        med = statistics.median(per_seed)
        ratio = med / opt if opt > 0 else (1.0 if med == 0 else math.inf)
        worst = max(worst, ratio)
        good += ratio <= 1.10 + 1e-12
    elapsed = time.perf_counter() - start
    passed = good >= 18 and elapsed < 120.0
    acceptance(2, passed,
               f"{good}/20 instances within 1.10x of exhaustive optimum "
               f"(worst {worst:.3f}), {elapsed:.1f}s (budget 120s)")
    assert good >= 18, f"only {good}/20 within 1.10x (worst {worst:.3f})"
    assert elapsed < 120.0


def test_criterion_3_delta_consistency(acceptance):
    start = time.perf_counter()
    contexts = []
    for i, (circ, cluster) in enumerate((
        (gen_adder(16), triangle_cluster()),
        (gen_qft(8), two_qpu_line(5, 5)),
        (gen_qaoa(16, 1, seed=7), triangle_cluster()),
        (gen_adder(16), gen_topology("line", [5, 5, 5, 5], seed=1)),
    )):
        seg0 = segment(layerize(circ))[0]
        prev = random_placement(circ.n_qubits, cluster, seed=700 + i)
        contexts.append((circ.n_qubits, cluster, seg0, prev))

    n_moves = 100_000
    per_ctx = n_moves // len(contexts)
    checked = ok = 0
    worst = 0.0
    for i, (n, cluster, seg0, prev) in enumerate(contexts):
        ev = SegmentCostEvaluator(cluster, seg0, CostParams(), prev=prev)
        lists = chain_lists(random_placement(n, cluster, seed=40 + i), cluster)
        qpu_of, masks, loads, caps, outside, dests = lists
        draws = _draws(random.Random(1000 + i), qpu_of, outside, dests)
        before = ev.breakdown(Assignment(tuple(qpu_of))).e_total
        for moved in islice(draws, per_ctx):
            d = ev.delta(qpu_of, masks, ev.local_costs(masks), moved)
            apply_moved(moved, *lists)
            after = ev.breakdown(Assignment(tuple(qpu_of))).e_total
            full = after - before
            err = abs(d - full) / max(1.0, abs(full))
            worst = max(worst, err)
            checked += 1
            ok += err <= 1e-9
            before = after
    elapsed = time.perf_counter() - start
    passed = checked == n_moves and ok == checked and elapsed < 60.0
    acceptance(3, passed,
               f"{ok}/{checked} incremental deltas within 1e-9 rel of full "
               f"recomputation (worst {worst:.2e}), {elapsed:.1f}s (budget 60s)")
    assert checked == n_moves
    assert ok == checked
    assert elapsed < 60.0


def test_criterion_4_ablation_trend(acceptance):
    start = time.perf_counter()
    cluster = triangle_cluster()
    circuits = (
        ("adder", gen_adder(16)),
        ("qft", gen_qft(16)),
        ("qaoa", gen_qaoa(16, 1, seed=7)),
    )
    medians: dict[str, dict[str, float]] = {}
    for name, circ in circuits:
        per_arm = {"L1": [], "L2": [], "L3": []}
        for seed in range(10):
            rep = run_ablate(circ, cluster, seed=seed)
            for arm in per_arm:
                per_arm[arm].append(rep["reductions"][arm])
        medians[name] = {arm: statistics.median(v) for arm, v in per_arm.items()}

    all_positive = all(m["L3"] > 0 for m in medians.values())
    dominant = sum(
        1 for m in medians.values()
        if m["L3"] >= m["L1"] - 1e-12 and m["L3"] >= m["L2"] - 1e-12)
    adder_l3 = medians["adder"]["L3"]
    elapsed = time.perf_counter() - start
    passed = all_positive and dominant >= 2 and adder_l3 >= 0.40 and elapsed < 300.0
    acceptance(4, passed,
               "L3 median reductions "
               + " ".join(f"{n}={medians[n]['L3']:.3f}" for n, _ in circuits)
               + f", dominates {dominant}/3, {elapsed:.1f}s (budget 300s)")
    assert all_positive, medians
    assert dominant >= 2, medians
    assert adder_l3 >= 0.40, medians
    assert elapsed < 300.0


def test_criterion_5_ratio_sweep_trend(acceptance):
    start = time.perf_counter()
    rows = run_sweep_ratio(gen_adder(16), triangle_cluster(),
                           ratios=[5, 4, 3, 2, 1], seed=0)
    totals = [row["total"] for row in rows]
    intra = [row["e_local_share"] for row in rows]
    monotone = all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
    variation = (max(intra) - min(intra)) / max(intra)
    elapsed = time.perf_counter() - start
    passed = monotone and variation <= 0.15 and elapsed < 180.0
    acceptance(5, passed,
               f"totals {'->'.join(f'{t:.0f}' for t in totals)} non-increasing, "
               f"intra varies {variation:.1%} (cap 15%), "
               f"{elapsed:.1f}s (budget 180s)")
    assert monotone, totals
    assert variation <= 0.15, intra
    assert elapsed < 180.0


def _fuzz_instance(rng: random.Random, seed: int):
    n = rng.randint(4, 10)
    gates = []
    for _ in range(rng.randint(10, 40)):
        if rng.random() < 0.6:
            a, b = rng.sample(range(n), 2)
            gates.append(GateOp("cx", (a, b), ()))
        else:
            gates.append(GateOp("h", (rng.randrange(n),), ()))
    circ = Circuit(n_qubits=n, gates=tuple(gates), name=f"fuzz{n}")
    sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 4))]
    while sum(sizes) < n:
        sizes[0] += 1
    cluster = gen_topology(rng.choice(TOPOLOGY_KINDS), sizes, seed=seed)
    return circ, cluster


def test_criterion_6_feasibility_and_determinism(acceptance):
    start = time.perf_counter()
    rng = random.Random(616161)
    n_runs = 1000
    feasible = 0
    identical = checked_identity = 0
    for k in range(n_runs):
        circ, cluster = _fuzz_instance(rng, seed=k)
        plan = compile(circ, cluster, seed=k)
        feasible += plan_is_feasible(plan, cluster)
        if k % 50 == 0:
            one = render_json(run_map(circ, cluster, seed=k))
            two = render_json(run_map(circ, cluster, seed=k))
            checked_identity += 1
            identical += one == two
    elapsed = time.perf_counter() - start
    passed = (feasible == n_runs and identical == checked_identity
              and elapsed < 180.0)
    acceptance(6, passed,
               f"{feasible}/{n_runs} plans capacity-feasible, "
               f"{identical}/{checked_identity} re-rendered reports "
               f"byte-identical, {elapsed:.1f}s (budget 180s)")
    assert feasible == n_runs
    assert identical == checked_identity
    assert elapsed < 180.0


def test_criterion_7_epr_accounting(acceptance):
    start = time.perf_counter()
    corpus = []
    tri = triangle_cluster()
    for circ in (gen_adder(16), gen_qft(16), gen_qaoa(16, 1, seed=7)):
        for seed in (0, 1):
            corpus.append((circ, tri, seed))
    multi_hop = gen_topology("line", [3, 3, 3, 3], seed=5)
    corpus.append((gen_qft(8), multi_hop, 0))
    corpus.append((cx_chain(4, [(0, 1), (1, 2), (2, 3)]), two_qpu_line(2, 3), 0))
    rng = random.Random(20270101)
    for k in range(5):
        circ, cluster = _fuzz_instance(rng, seed=9000 + k)
        corpus.append((circ, cluster, k))

    checked = exact = 0
    for circ, cluster, seed in corpus:
        plan = compile(circ, cluster, seed=seed)
        sw = replay_epr(plan, cluster)
        checked += 1
        exact += (
            isinstance(plan.totals.epr_pairs, int)
            and sum(sw.per_link_epr.values()) == plan.totals.epr_pairs
            and dict(sw.per_link_epr) == plan.per_link_epr
            and sw == reference_replay(plan, cluster)
        )
    elapsed = time.perf_counter() - start
    passed = exact == checked
    acceptance(7, passed,
               f"{exact}/{checked} plans replay to the exact integer EPR "
               f"totals, {elapsed:.1f}s")
    assert exact == checked
