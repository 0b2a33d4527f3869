"""Cluster model: validation, distance tables, EPR replay, generation."""
from __future__ import annotations

import itertools
import random

import pytest

from dqcmap.anneal import Plan, PlanStep, compile, replay_epr
from dqcmap.cost import CostBreakdown
from dqcmap.errors import InfeasibleError, ValidationError
from dqcmap.hardware import (
    _COUPLING_BUILDERS,
    TOPOLOGY_KINDS,
    build_cluster,
    cluster_to_config,
    gen_topology,
    load_cluster,
    serialize_cluster,
)
from dqcmap.placement import Assignment
from dqcmap.segmentation import Segment

from conftest import (
    cx_chain,
    full_coupling,
    line_coupling,
    reference_qpu_tables,
    reference_replay,
    two_qpu_line,
)


def qpu_spec(name, cap, coupling, comm=1):
    return {"name": name, "comp_capacity": cap, "coupling": coupling,
            "comm_qubits": comm}


class TestValidation:
    def test_disconnected_coupling_rejected(self):
        # too few edges to connect 3 qubits
        with pytest.raises(ValidationError, match="not connected"):
            build_cluster([qpu_spec("a", 3, [[0, 1]])], [])
        # n - 1 edges, yet qubit 3 is reached from no other qubit
        with pytest.raises(ValidationError, match="not connected"):
            build_cluster([qpu_spec("a", 4, [[0, 1], [1, 2], [0, 2]])], [])

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValidationError):
            build_cluster([qpu_spec("a", 0, [])], [])

    def test_unknown_qpu_field_rejected_on_load(self):
        import json

        doc = {"qpus": [dict(qpu_spec("a", 2, [[0, 1]]), bogus=1)], "links": []}
        with pytest.raises(ValidationError, match="bogus"):
            load_cluster(json.dumps(doc))

    def test_unknown_link_field_rejected_on_load(self):
        import json

        doc = {
            "qpus": [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
            "links": [{"a": 1, "b": 2, "cost_factor": 1.0, "oops": 5}],
        }
        with pytest.raises(ValidationError, match="oops"):
            load_cluster(json.dumps(doc))

    @pytest.mark.parametrize("qpus, links, fragment", [
        ([{"name": "a", "comp_capacity": 2, "coupling": [[0, 1]]}], [],
         "qpu 1: missing fields ['comm_qubits']"),
        (["a"], [], "qpu 1 must be an object"),
        ([qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
         [{"a": 1, "b": 2}], "link 1: missing fields ['cost_factor']"),
        ([qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
         [[1, 2, 1.0]], "link 1 must be an object"),
    ], ids=["qpu-missing-field", "qpu-not-a-dict", "link-missing-field", "link-not-a-dict"])
    def test_malformed_spec_rejected_by_build(self, qpus, links, fragment):
        with pytest.raises(ValidationError) as info:
            build_cluster(qpus, links)
        assert fragment in str(info.value)

    def test_disconnected_interconnect_rejected(self):
        with pytest.raises(ValidationError, match="not connected"):
            build_cluster(
                [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
                [],
            )

    def test_nonpositive_cost_factor_rejected(self):
        with pytest.raises(ValidationError):
            build_cluster(
                [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
                [{"a": 1, "b": 2, "cost_factor": 0.0}],
            )

    @pytest.mark.parametrize("cost_factor", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "huge_int"])
    def test_non_finite_cost_factor_rejected(self, cost_factor):
        # NaN passes a plain `c <= 0` check, and JSON NaN/Infinity load as floats
        import json

        doc = {"qpus": [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
               "links": [{"a": 1, "b": 2, "cost_factor": cost_factor}]}
        with pytest.raises(ValidationError, match="topology link .* finite"):
            load_cluster(json.dumps(doc))

    def test_overflowing_path_cost_rejected(self):
        # each link is finite, the two in series are not
        import json

        doc = {"qpus": [qpu_spec(n, 2, [[0, 1]]) for n in "abc"],
               "links": [{"a": 1, "b": 2, "cost_factor": 1e308},
                         {"a": 2, "b": 3, "cost_factor": 1e308}]}
        with pytest.raises(ValidationError, match="topology: the cheapest path from QPU 1 to QPU 3"):
            load_cluster(json.dumps(doc))

    @pytest.mark.parametrize("coupling", ["5", "1.5", "null"])
    def test_coupling_that_is_not_an_array_rejected(self, coupling):
        # iterating it would raise TypeError, an internal error (exit 4)
        text = ('{"qpus": [{"name": "a", "comp_capacity": 2, "coupling": '
                + coupling + ', "comm_qubits": 1}]}')
        with pytest.raises(ValidationError, match="qpu 'a': coupling must be an array"):
            load_cluster(text)

    def test_coupling_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            build_cluster([qpu_spec("a", 2, [[0, 2]])], [])

    @pytest.mark.parametrize("qpus,link", [
        ([qpu_spec("a", True, [])], None),
        ([qpu_spec("a", 2, [[0, 1]], comm=True)], None),
        ([qpu_spec("a", 2, [[False, True]])], None),
        ([qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
         {"a": True, "b": 2, "cost_factor": 1.0}),
        ([qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
         {"a": 1, "b": True, "cost_factor": 1.0}),
    ], ids=["comp_capacity", "comm_qubits", "coupling", "link_a", "link_b"])
    def test_bool_for_integer_field_rejected(self, qpus, link):
        # JSON true loads as a bool, which Python counts as the int 1
        with pytest.raises(ValidationError, match="integer"):
            build_cluster(qpus, [link] if link else [])

    def test_link_to_unknown_qpu_rejected(self):
        with pytest.raises(ValidationError):
            build_cluster(
                [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]])],
                [{"a": 1, "b": 3, "cost_factor": 1.0}],
            )


class TestIntraDistances:
    def test_line_hand_values(self):
        ct = two_qpu_line(4, 2)
        table = ct.distances.intra[1]
        assert table[0][3] == 3
        assert table[1][2] == 1
        assert table[2][2] == 0

    def test_symmetry_diag_triangle(self):
        ct = build_cluster([qpu_spec("a", 5, full_coupling(5))], [])
        grid = build_cluster(
            [qpu_spec("g", 6, [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3], [1, 4], [2, 5]])],
            [],
        )
        for cluster in (ct, grid):
            dist = cluster.distances.intra[1]
            n = cluster.qpus[0].comp_capacity
            for i, j, k in itertools.product(range(n), repeat=3):
                d = dist[i][j]
                assert d == dist[j][i]
                if i == j:
                    assert d == 0
                assert d <= dist[i][k] + dist[k][j]


    @pytest.mark.parametrize("kind", ["line", "ring", "grid", "heavy_hex_like", "complete"])
    def test_near_orders_each_row_by_hops_then_index(self, kind):
        for k in range(1, 13):
            coupling = (full_coupling(k) if kind == "complete"
                        else [list(e) for e in _COUPLING_BUILDERS[kind](k)])
            ct = build_cluster([qpu_spec("a", k, coupling)], [])
            table, near = ct.distances.intra[1], ct.distances.near[1]
            assert len(near) == k
            for v, order in enumerate(near):
                assert sorted(order) == list(range(k))
                assert list(order) == sorted(range(k), key=lambda u: (table[v][u], u))

    @pytest.mark.parametrize("kind", ["line", "ring", "grid", "heavy_hex_like", "complete"])
    def test_tables_match_reference(self, kind):
        for k in range(1, 14):
            coupling = (full_coupling(k) if kind == "complete"
                        else [list(e) for e in _COUPLING_BUILDERS[kind](k)])
            assert_qpu_tables(build_cluster([qpu_spec("a", k, coupling)], []))

    def test_tables_match_reference_on_random_couplings(self):
        rng = random.Random(20261020)
        for _ in range(20):
            qpus = []
            for pos in range(3):
                n = rng.randint(1, 24)
                edges = set()
                for v in range(1, n):  # a random spanning tree, then extra edges
                    u = rng.randrange(v)
                    edges.add((u, v))
                for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
                    edges.add(tuple(sorted(rng.sample(range(n), 2))))
                qpus.append(qpu_spec(f"q{pos}", n, [list(e) for e in edges]))
            links = [{"a": 1, "b": 2, "cost_factor": 1.0}, {"a": 2, "b": 3, "cost_factor": 1.0}]
            assert_qpu_tables(build_cluster(qpus, links))

    def test_rows_share_their_int_objects(self):
        # a line's distances run past CPython's cached small ints, so only
        # shared objects keep the table at one pointer per entry
        ct = build_cluster([qpu_spec("a", 600, line_coupling(600))], [])
        table = ct.distances.intra[1]
        assert len({id(d) for row in table for d in row}) == 600


def assert_qpu_tables(ct):
    """Every QPU's intra, hub, ranks and near equal reference_qpu_tables, and
    ranks is the (cum, extra) histogram of its distance rows."""
    dist = ct.distances
    for qpu in ct.qpus:
        pid = qpu.id
        intra, hub, ranks, near = reference_qpu_tables(qpu)
        assert dist.intra[pid] == intra
        assert dist.hubs[pid] == hub
        assert dist.ranks[pid] == ranks
        assert dist.near[pid] == near
        n = qpu.comp_capacity
        hops = [intra[i][j] for i in range(n) for j in range(i + 1, n)]
        cum, extra = dist.ranks[pid]
        assert len(cum) == len(extra) == max(hops, default=0) + 1
        for d in range(len(cum)):
            assert cum[d] == sum(1 for h in hops if h <= d)
            assert extra[d] == sum(h - 1 for h in hops if h <= d)


def random_interconnect(rng):
    """Connected random QPU graph with weighted links; returns cluster + raw."""
    p = rng.randint(2, 7)
    qpus = [qpu_spec(f"q{i}", 2, [[0, 1]]) for i in range(p)]
    edges = {}
    order = list(range(1, p + 1))
    rng.shuffle(order)
    for i in range(1, p):  # random spanning tree first
        a, b = order[rng.randrange(i)], order[i]
        edges[(min(a, b), max(a, b))] = round(rng.uniform(0.1, 3.0), 2)
    for a in range(1, p + 1):
        for b in range(a + 1, p + 1):
            if (a, b) not in edges and rng.random() < 0.3:
                edges[(a, b)] = round(rng.uniform(0.1, 3.0), 2)
    links = [{"a": a, "b": b, "cost_factor": c} for (a, b), c in sorted(edges.items())]
    ct = build_cluster(qpus, links)
    return ct, p, edges


def lex_floyd_warshall(p, edges):
    """(cost, hops) lexicographic all-pairs shortest paths."""
    INF = (float("inf"), 0)
    dist = {(a, b): INF for a in range(1, p + 1) for b in range(1, p + 1)}
    for a in range(1, p + 1):
        dist[(a, a)] = (0.0, 0)
    for (a, b), c in edges.items():
        dist[(a, b)] = min(dist[(a, b)], (c, 1))
        dist[(b, a)] = min(dist[(b, a)], (c, 1))
    for k in range(1, p + 1):
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                via = (dist[(i, k)][0] + dist[(k, j)][0],
                       dist[(i, k)][1] + dist[(k, j)][1])
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


class TestInterDistances:
    def test_against_floyd_warshall(self):
        rng = random.Random(1717)
        for _ in range(30):
            ct, p, edges = random_interconnect(rng)
            oracle = lex_floyd_warshall(p, edges)
            for a in range(1, p + 1):
                for b in range(1, p + 1):
                    c, h = oracle[(a, b)]
                    assert ct.distances.inter_cost[a][b] == pytest.approx(c, rel=1e-12)
                    assert len(ct.distances.inter_path[a][b]) == h

    def test_path_reconstruction_consistent(self):
        rng = random.Random(2929)
        for _ in range(20):
            ct, p, edges = random_interconnect(rng)
            d = ct.distances
            # index 0 is unused: () in a table of rows, 0 in hubs and caps,
            # and 0.0, 0 or () in column 0 of a per-pair row
            assert d.intra[0] == d.ranks[0] == d.neighbors[0] == ()
            assert d.inter_cost[0] == d.inter_path[0] == ()
            assert d.hubs[0] == ct.caps[0] == 0
            for table in (d.intra, d.hubs, d.ranks, d.neighbors, d.inter_cost,
                          d.inter_path, ct.caps):
                assert len(table) == p + 1
            for a in range(1, p + 1):
                assert ct.caps[a] == ct.qpu(a).comp_capacity
                assert d.neighbors[a] == tuple(sorted(
                    y if x == a else x for x, y in edges if a in (x, y)))
                assert (d.inter_cost[a][0], d.inter_path[a][0]) == (0.0, ())
                for b in range(1, p + 1):
                    path = d.inter_path[a][b]
                    node = a
                    cost = 0.0
                    for u, v in path:
                        assert u == node
                        key = (min(u, v), max(u, v))
                        cost += edges[key]
                        node = v
                    assert node == b
                    assert cost == pytest.approx(d.inter_cost[a][b], rel=1e-12)

    def test_cheapest_beats_fewest_hops(self):
        # 1-3 direct costs 5; 1-2-3 costs 2 total: cost wins, hops follow
        ct = build_cluster(
            [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]]),
             qpu_spec("c", 2, [[0, 1]])],
            [{"a": 1, "b": 3, "cost_factor": 5.0},
             {"a": 1, "b": 2, "cost_factor": 1.0},
             {"a": 2, "b": 3, "cost_factor": 1.0}],
        )
        assert ct.distances.inter_cost[1][3] == pytest.approx(2.0)
        assert len(ct.distances.inter_path[1][3]) == 2
        assert ct.distances.inter_path[1][3] == ((1, 2), (2, 3))

    def test_hops_break_cost_ties(self):
        # both routes cost 2.0; the direct link has fewer hops
        ct = build_cluster(
            [qpu_spec("a", 2, [[0, 1]]), qpu_spec("b", 2, [[0, 1]]),
             qpu_spec("c", 2, [[0, 1]])],
            [{"a": 1, "b": 3, "cost_factor": 2.0},
             {"a": 1, "b": 2, "cost_factor": 1.0},
             {"a": 2, "b": 3, "cost_factor": 1.0}],
        )
        assert ct.distances.inter_cost[1][3] == pytest.approx(2.0)
        assert len(ct.distances.inter_path[1][3]) == 1
        assert ct.distances.inter_path[1][3] == ((1, 3),)


def plan_of(*steps) -> Plan:
    """A plan of (pairs, qpu_of) steps; the replay reads no costs."""
    zero = CostBreakdown(0.0, 0.0, 0.0, 0.0, 0)
    return Plan(steps=tuple(PlanStep(Segment(k, k, k, pairs), Assignment(qo), zero)
                            for k, (pairs, qo) in enumerate(steps, start=1)),
                totals=zero)


def line3():
    return build_cluster(
        [qpu_spec(n, 2, [[0, 1]]) for n in "abc"],
        [{"a": 1, "b": 2, "cost_factor": 1.0}, {"a": 2, "b": 3, "cost_factor": 1.0}],
    )


class TestSwitch:
    """replay_epr against the per-gate, per-hop ledger of reference_replay."""

    def test_counters(self):
        ct = two_qpu_line(2, 2)
        # 3 gates across the link, one pair each, then qubit 1 moves back
        # next to qubit 0
        plan = plan_of(({(0, 1): 3}, (1, 2)), ({(0, 1): 2}, (1, 1)))
        sw = replay_epr(plan, ct)
        assert (sw.remote_ops, sw.teleports) == (3, 1)
        assert sw.per_link_epr == {(1, 2): 4}
        assert reference_replay(plan, ct) == sw

    def test_multi_hop_consumes_per_link(self):
        ct = line3()
        assert ct.distances.inter_path[3][1] == ((3, 2), (2, 1))
        # 2 gates from QPU 3 to QPU 1, then qubit 0 moves 3 -> 1
        plan = plan_of(({(0, 1): 2}, (3, 1)), ({}, (1, 1)))
        sw = replay_epr(plan, ct)
        assert (sw.remote_ops, sw.teleports) == (2, 1)
        assert sw.per_link_epr == {(1, 2): 3, (2, 3): 3}
        assert reference_replay(plan, ct) == sw

    def test_zero_count_pair_consumes_nothing(self):
        ct = line3()
        plan = plan_of(({(0, 1): 0, (1, 2): 1}, (1, 3, 1)))
        sw = replay_epr(plan, ct)
        assert sw == reference_replay(plan, ct)
        assert (sw.remote_ops, sw.teleports) == (1, 0)
        assert sw.per_link_epr == {(1, 2): 1, (2, 3): 1}

    def test_empty_plan_keeps_every_link_at_zero(self):
        ct = line3()
        sw = replay_epr(plan_of(), ct)
        assert sw == reference_replay(plan_of(), ct)
        assert (sw.remote_ops, sw.teleports) == (0, 0)
        assert sw.per_link_epr == {(1, 2): 0, (2, 3): 0}
        # a compiled plan of no gates lists every link too
        assert compile(cx_chain(3, []), ct, seed=0).per_link_epr == {(1, 2): 0, (2, 3): 0}

    @pytest.mark.parametrize("kind", ["line", "ring"])
    @pytest.mark.parametrize("n_qpus", [3, 4, 5])
    def test_random_plans_match_reference(self, kind, n_qpus):
        rng = random.Random(f"{kind}{n_qpus}")
        # on seed 17 even the 3-QPU ring routes one pair over two links
        ct = gen_topology(kind, [2] * n_qpus, seed=17)
        paths = ct.distances.inter_path
        # some plan must travel a multi-hop path from a higher QPU id down
        descending = {(p, q) for p in range(1, n_qpus + 1) for q in range(1, p)
                      if len(paths[p][q]) > 1}
        assert descending
        walked = set()
        for _ in range(20):
            n = rng.randint(2, 6)
            steps = []
            for _ in range(rng.randint(1, 4)):
                qo = tuple(rng.randint(1, n_qpus) for _ in range(n))
                pairs = {(i, j): rng.randint(0, 3) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.5}
                walked |= {(qo[i], qo[j]) for i, j in pairs} & descending
                steps.append((pairs, qo))
            plan = plan_of(*steps)
            assert replay_epr(plan, ct) == reference_replay(plan, ct)
        assert walked


class TestSerialization:
    def test_roundtrip(self):
        ct = two_qpu_line(4, 3, cost_factor=1.5)
        back = load_cluster(serialize_cluster(ct))
        assert cluster_to_config(back) == cluster_to_config(ct)

    def test_load_rejects_unknown_fields(self):
        text = serialize_cluster(two_qpu_line(2, 2)).replace(
            '"comm_qubits"', '"comm_qubitz"')
        with pytest.raises(ValidationError):
            load_cluster(text)

    def test_load_rejects_malformed_json(self):
        with pytest.raises(ValidationError):
            load_cluster("{not json")


class TestGenTopology:
    def test_deterministic(self):
        a = gen_topology("ring", [4, 4, 4], seed=11)
        b = gen_topology("ring", [4, 4, 4], seed=11)
        assert serialize_cluster(a) == serialize_cluster(b)

    def test_all_kinds_build(self):
        for kind in TOPOLOGY_KINDS:
            ct = gen_topology(kind, [4, 5, 6, 7], seed=3)
            assert ct.n_qpus == 4
            assert ct.caps == (0, 4, 5, 6, 7)
            assert [p.name for p in ct.qpus] == ["qpu1", "qpu2", "qpu3", "qpu4"]
            for a, b, c in ct.links:
                assert 0.5 <= c <= 2.0

    def test_single_qpu_allowed(self):
        ct = gen_topology("line", [5], seed=0)
        assert ct.n_qpus == 1
        assert ct.links == ()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gen_topology("torus", [4, 4], seed=0)
        with pytest.raises(ValueError):
            gen_topology("line", [], seed=0)
        with pytest.raises(ValueError):
            gen_topology("line", [1], seed=0)

    def test_seed_changes_draws(self):
        a = gen_topology("line", [8, 8], seed=1)
        b = gen_topology("line", [8, 8], seed=2)
        assert serialize_cluster(a) != serialize_cluster(b)
