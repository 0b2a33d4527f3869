"""Report construction: map runs, ablation arms, ratio sweeps, rendering."""
from __future__ import annotations

import json
import statistics
from dataclasses import asdict

import pytest

from dqcmap import anneal, cost, harness, segmentation
from dqcmap.anneal import AnnealParams, compile, prepare
from dqcmap.bench import gen_adder, gen_qft
from dqcmap.cost import CostParams, SegmentCostEvaluator
from dqcmap.errors import InfeasibleError
from dqcmap.hardware import gen_topology
from dqcmap.harness import (
    ARMS,
    SCHEMA_VERSION,
    SWEEP_COLUMNS,
    render_json,
    render_sweep_csv,
    run_ablate,
    run_map,
    run_sweep_ratio,
)
from dqcmap.seeding import split_seed
from dqcmap.segmentation import Segment, SegmentationParams

from conftest import cx_chain, delta_total, triangle_cluster, two_qpu_line

CIRC = gen_qft(6)
FAST = AnnealParams(iters_per_segment=300)


class TestRenderJson:
    def test_sorted_keys_and_trailing_newline(self):
        out = render_json({"b": 1, "a": {"z": 2, "y": 3}})
        assert out.endswith("\n")
        assert out.index('"a"') < out.index('"b"')
        assert out.index('"y"') < out.index('"z"')
        assert json.loads(out) == {"b": 1, "a": {"z": 2, "y": 3}}

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_number_refused(self, value):
        # JSON has no spelling for these; json.dumps would write Infinity/NaN
        with pytest.raises(ValueError):
            render_json({"total": value})

    def test_byte_stable(self):
        ct = two_qpu_line(4, 4)
        one = render_json(run_map(CIRC, ct, seed=5, anneal_params=FAST))
        two = render_json(run_map(CIRC, ct, seed=5, anneal_params=FAST))
        assert one == two


class TestRunMap:
    def test_report_shape(self):
        ct = two_qpu_line(4, 4)
        rep = run_map(CIRC, ct, seed=3, anneal_params=FAST)
        assert rep["schema_version"] == SCHEMA_VERSION
        assert rep["run"]["command"] == "map"
        assert rep["run"]["seed"] == 3
        assert rep["circuit"]["name"] == "qft_n6"
        assert rep["circuit"]["n_qubits"] == 6
        assert len(rep["topology"]["qpus"]) == 2
        assert len(rep["segments"]) == len(rep["assignments"]) == len(rep["costs"])

    def test_totals_consistent_with_plan(self):
        ct = two_qpu_line(4, 4)
        rep = run_map(CIRC, ct, seed=3, anneal_params=FAST)
        plan = compile(CIRC, ct, seed=3, anneal_params=FAST)
        assert rep["totals"] == asdict(plan.totals)
        assert rep["epr_pairs"] == sum(plan.per_link_epr.values())
        for key in ("e_inter", "e_local", "e_move", "e_total"):
            assert rep["totals"][key] == pytest.approx(
                sum(row[key] for row in rep["costs"]))

    def test_reduction_recomputes(self):
        ct = two_qpu_line(4, 4)
        rep = run_map(CIRC, ct, seed=9, anneal_params=FAST)
        assert rep["baseline"]["samples"] == 10
        base = []
        for i in range(10):
            p = compile(CIRC, ct, seed=split_seed(9, f"baseline:{i}"),
                        initial="random", do_anneal=False)
            base.append(p.total_cost)
        median = statistics.median(base)
        assert rep["baseline"]["median_total"] == pytest.approx(median)
        assert rep["baseline"]["reduction"] == pytest.approx(
            (median - rep["totals"]["e_total"]) / median)

    def test_per_link_epr_keys_are_strings(self):
        rep = run_map(CIRC, triangle_cluster(), seed=1, anneal_params=FAST)
        assert sum(rep["per_link_epr"].values()) == rep["epr_pairs"]
        for key in rep["per_link_epr"]:
            a, b = key.split("-")
            assert int(a) < int(b)


class TestRunAblate:
    def test_arms_and_reductions(self):
        ct = two_qpu_line(4, 4)
        rep = run_ablate(CIRC, ct, seed=2, anneal_params=FAST)
        assert set(rep["arms"]) == set(ARMS)
        base = rep["arms"]["baseline"]["totals"]["e_total"]
        for arm in ("L1", "L2", "L3"):
            total = rep["arms"][arm]["totals"]["e_total"]
            assert rep["reductions"][arm] == pytest.approx((base - total) / base)

    def test_arms_match_direct_compiles(self):
        ct = two_qpu_line(4, 4)
        rep = run_ablate(CIRC, ct, seed=2, anneal_params=FAST)
        l1 = compile(CIRC, ct, seed=2, do_anneal=False)
        l3 = compile(CIRC, ct, seed=2, anneal_params=FAST)
        assert rep["arms"]["L1"]["totals"] == asdict(l1.totals)
        assert rep["arms"]["L3"]["totals"] == asdict(l3.totals)

    def test_deterministic(self):
        ct = triangle_cluster()
        assert render_json(run_ablate(CIRC, ct, seed=4, anneal_params=FAST)) == \
            render_json(run_ablate(CIRC, ct, seed=4, anneal_params=FAST))

    def test_decay_reaches_clustering_arms(self):
        # an instance whose clustering the decay changes
        circ, ct = gen_adder(6), triangle_cluster()
        rep = run_ablate(circ, ct, seed=1, anneal_params=FAST, decay=0.0)
        assert rep != run_ablate(circ, ct, seed=1, anneal_params=FAST)
        for arm, kw in (("L1", dict(do_anneal=False)),
                        ("L2", dict(anneal_params=FAST, segmentation_mode="random")),
                        ("L3", dict(anneal_params=FAST))):
            plan = compile(circ, ct, seed=1, decay=0.0, **kw)
            assert rep["arms"][arm]["totals"] == asdict(plan.totals)


class TestSweepRatio:
    def test_rows_and_columns(self):
        ct = two_qpu_line(4, 4)
        rows = run_sweep_ratio(CIRC, ct, ratios=[3, 1], seed=0, anneal_params=FAST)
        assert [row["ratio"] for row in rows] == [3, 1]
        for row in rows:
            assert set(row) == set(SWEEP_COLUMNS)
            assert row["total"] == pytest.approx(
                row["e_inter_share"] + row["e_local_share"] + row["e_move_share"])

    def test_ratio_sets_remote_costs(self):
        ct = two_qpu_line(4, 4)
        rows = run_sweep_ratio(CIRC, ct, ratios=[2], seed=0, anneal_params=FAST)
        direct = compile(CIRC, ct, seed=0, anneal_params=FAST,
                         cost_params=CostParams().with_ratio(2))
        assert rows[0]["total"] == pytest.approx(direct.total_cost)

    def test_decay_reaches_compile(self):
        circ, ct = gen_adder(6), triangle_cluster()
        rows = run_sweep_ratio(circ, ct, [5.0], seed=1, anneal_params=FAST, decay=0.0)
        assert rows != run_sweep_ratio(circ, ct, [5.0], seed=1, anneal_params=FAST)
        plan = compile(circ, ct, seed=1, cost_params=CostParams().with_ratio(5.0),
                       anneal_params=FAST, decay=0.0)
        assert rows[0]["total"] == plan.totals.e_total

    def test_empty_ratio_list(self):
        with pytest.raises(ValueError):
            run_sweep_ratio(CIRC, two_qpu_line(4, 4), ratios=[])

    @pytest.mark.parametrize("cost_params", [None, CostParams()], ids=["default", "given"])
    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_ratio_rejected(self, cost_params, ratio, monkeypatch):
        # both forms check the ratio, and every ratio is checked before the
        # circuit is prepared for the first compile
        def unreachable(*args, **kwargs):
            raise AssertionError("prepared before the ratios were checked")

        monkeypatch.setattr(harness, "prepare", unreachable)
        with pytest.raises(ValueError, match="ratio"):
            run_sweep_ratio(CIRC, two_qpu_line(4, 4), [2.0, ratio],
                            anneal_params=FAST, cost_params=cost_params)

    def test_default_cost_params_same_rows(self):
        ct = two_qpu_line(4, 4)
        assert (run_sweep_ratio(CIRC, ct, [0.5, 3], seed=2, anneal_params=FAST)
                == run_sweep_ratio(CIRC, ct, [0.5, 3], seed=2, anneal_params=FAST,
                                   cost_params=CostParams()))

    def test_csv_rendering(self):
        rows = [
            {"ratio": 2, "e_inter_share": 1.5, "e_local_share": 2.0,
             "e_move_share": 0.0, "total": 3.5},
            {"ratio": 1, "e_inter_share": 1.0, "e_local_share": 2.0,
             "e_move_share": 0.5, "total": 3.5},
        ]
        out = render_sweep_csv(rows)
        lines = out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines[1] == "2,1.5,2.0,0.0,3.5"
        assert len(lines) == 3


def test_small_circuit_smoke():
    # run_map on a circuit with a single segment still yields a full report
    chain = cx_chain(3, [(0, 1), (1, 2)])
    rep = run_map(chain, two_qpu_line(2, 2), seed=0, anneal_params=FAST)
    assert rep["segments"]
    assert rep["totals"]["e_total"] >= 0.0


class TestPrepareOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count layerize and segment calls wherever harness or anneal bind them."""
        counts = {"layerize": 0, "segment": 0}
        for mod in (anneal, harness):
            for name in counts:
                if name in vars(mod):
                    original = getattr(mod, name)

                    def counted(*args, _name=name, _original=original, **kwargs):
                        counts[_name] += 1
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(mod, name, counted)
        return counts

    def test_run_map_and_ablate_prepare_once(self, calls):
        ct = two_qpu_line(4, 4)
        run_map(CIRC, ct, seed=1, anneal_params=FAST)
        assert calls == {"layerize": 1, "segment": 1}
        calls.update(layerize=0, segment=0)
        run_ablate(CIRC, ct, seed=1, anneal_params=FAST)
        assert calls == {"layerize": 1, "segment": 1}

    @pytest.mark.parametrize("mode", ["pattern", "random"])
    def test_prepared_compile_equals_fresh(self, mode):
        ct = triangle_cluster()
        fresh = compile(CIRC, ct, seed=6, anneal_params=FAST, segmentation_mode=mode)
        reused = compile(CIRC, ct, seed=6, anneal_params=FAST, segmentation_mode=mode,
                         prepared=prepare(CIRC))
        assert reused == fresh
        # a custom segmentation reaches compile only through `prepared`
        sp = SegmentationParams(window=2, top_k=3, threshold=0.6)
        custom = compile(CIRC, ct, seed=6, anneal_params=FAST, segmentation_mode=mode,
                         prepared=prepare(CIRC, sp))
        assert len(custom.steps) > 1

    def test_run_map_builds_pair_tables_once(self, monkeypatch):
        """The plan and the ten baselines share one build of each segment's
        pair tables, counted by its adjacency wherever a module binds one;
        an evaluator on a shared segment prices like one on a fresh copy."""
        builds = []
        for mod in (cost, segmentation):
            if "_adjacency" in vars(mod):
                original = mod._adjacency

                def counted(pairs, _original=original):
                    builds.append(1)
                    return _original(pairs)

                monkeypatch.setattr(mod, "_adjacency", counted)
        circ, ct = gen_adder(16), gen_topology("line", [6, 6, 8], 0)
        ap = AnnealParams(iters_per_segment=50)
        run_map(circ, ct, seed=3, anneal_params=ap)
        prep = prepare(circ)
        assert len(prep.segments) > 1
        assert len(builds) == len(prep.segments)

        cp = CostParams()
        plan = compile(circ, ct, seed=3, anneal_params=ap, prepared=prep)
        compile(circ, ct, seed=4, cost_params=cp, initial="random", do_anneal=False,
                prepared=prep)
        prev = None
        for step in plan.steps:
            seg = step.segment
            fresh = Segment(index=seg.index, from_layer=seg.from_layer,
                            to_layer=seg.to_layer, pairs=dict(seg.pairs))
            used = SegmentCostEvaluator(ct, seg, cp, prev=prev)
            new = SegmentCostEvaluator(ct, fresh, cp, prev=prev)
            a = step.assignment
            assert used.breakdown(a) == new.breakdown(a)
            qo = a.qpu_of
            for q in range(len(qo)):
                # a swap with the first qubit on another QPU
                o = next(o for o in range(len(qo)) if qo[o] != qo[q])
                moved = ((q, qo[q], qo[o]), (o, qo[o], qo[q]))
                assert delta_total(used, a, moved) == delta_total(new, a, moved)
            prev = a

    def test_prepared_for_another_circuit_rejected(self):
        other = cx_chain(6, [(0, 1)])
        with pytest.raises(ValueError):
            compile(CIRC, two_qpu_line(4, 4), prepared=prepare(other))


@pytest.mark.parametrize("run", [
    run_map,
    run_ablate,
    lambda circuit, cluster: run_sweep_ratio(circuit, cluster, [1.0]),
])
def test_oversized_circuit_refused_before_preparation(run, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("prepared a circuit that cannot fit")

    monkeypatch.setattr(harness, "prepare", fail)
    with pytest.raises(InfeasibleError):
        run(cx_chain(9, [(0, 1)]), two_qpu_line(4, 4))
