"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import copy
import importlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checker, inputs, pace, run, spans  # noqa: E402

MODS = {m: importlib.import_module(f"dqcmap.{m}") for m in run.MODULES}


def small_job(kind: str) -> inputs.Job:
    sizes = [3, 3, 3, 3] if kind == "map" else [3, 3, 4]
    config = inputs.topology("ring" if kind == "map" else "line", sizes, random.Random(5))
    return inputs.Job(name="qft8", kind=kind, n_qubits=8, gates=inputs.qft_gates(8),
                      config=config, run_seed=3,
                      iters_per_segment=200 if kind == "map" else None)


def loaded(jobs):
    return [(MODS["circuit"].parse_qasm(j.qasm, name=j.name),
             MODS["hardware"].load_cluster(j.topology_json)) for j in jobs]


@pytest.fixture(scope="module")
def map_report():
    job = small_job("map")
    (circuit, cluster), = loaded([job])
    return job, json.loads(run.run_job(MODS, job, circuit, cluster))


def test_checker_accepts_compiler_output(map_report):
    job, report = map_report
    assert checker.check_map(job, report) == []


def test_checker_rejects_over_capacity(map_report):
    job, report = map_report
    bad = copy.deepcopy(report)
    bad["assignments"][0]["qpu_of"] = [1] * job.n_qubits
    assert any("holds" in p for p in checker.check_map(job, bad))


def test_checker_rejects_altered_epr(map_report):
    job, report = map_report
    for mutate in (lambda r: r["costs"][0].__setitem__("epr_pairs", r["costs"][0]["epr_pairs"] + 1),
                   lambda r: r.__setitem__("epr_pairs", r["epr_pairs"] + 1),
                   lambda r: r["per_link_epr"].__setitem__("1-2", r["per_link_epr"]["1-2"] + 1)):
        bad = copy.deepcopy(report)
        mutate(bad)
        assert checker.check_map(job, bad)


def test_checker_rejects_unweighted_total(map_report):
    job, report = map_report
    bad = copy.deepcopy(report)
    bad["costs"][0]["e_total"] += 1.0
    assert any("weighted sum" in p for p in checker.check_map(job, bad))


def test_checker_rejects_local_below_floor(map_report):
    job, report = map_report
    bad = copy.deepcopy(report)
    bad["costs"][0]["e_local"] = -1.0
    assert any("cx floor" in p for p in checker.check_map(job, bad))


def test_checker_on_ablation():
    job = small_job("ablate")
    (circuit, cluster), = loaded([job])
    report = json.loads(run.run_job(MODS, job, circuit, cluster))
    assert checker.check_ablate(job, report) == []
    report["arms"]["L3"]["epr_pairs"] += 1
    assert checker.check_ablate(job, report)


def test_cheapest_path_ties_are_refused():
    config = {"qpus": [{}] * 4, "links": [
        {"a": 1, "b": 2, "cost_factor": 1.0}, {"a": 2, "b": 3, "cost_factor": 1.0},
        {"a": 3, "b": 4, "cost_factor": 1.0}, {"a": 1, "b": 4, "cost_factor": 1.0}]}
    with pytest.raises(ValueError):
        checker.cheapest_paths(config)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a, b, c = (inputs.build_workload(workload, s) for s in (1, 1, 2))
    assert [(j.qasm, j.topology_json, j.run_seed) for j in a] == \
        [(j.qasm, j.topology_json, j.run_seed) for j in b]
    assert [(j.topology_json, j.run_seed) for j in a] != [(j.topology_json, j.run_seed) for j in c]
    for job in a:
        checker.cheapest_paths(job.config)  # no ties


def test_pacer_rescales_by_the_loop_around_each_unit(monkeypatch):
    loops = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(pace, "calibrate", lambda: next(loops))
    pacer = pace.Pacer()
    pacer.record("a", 1.0)  # loop took 0.01 before and 0.03 after
    pacer.record("a", 1.0)  # 0.03 before, 0.02 after
    assert pacer.samples["a"] == pytest.approx([pace.REF_SECONDS / 0.02, pace.REF_SECONDS / 0.025])


def test_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == spans.LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} <= set(inputs.WORKLOADS)
    for name in [*end_to_end, *per_layer, *(w["name"] for w in bench["workloads"])]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_traced_reports_equal_untraced():
    jobs = [small_job("map"), small_job("ablate")]
    tracer = spans.Tracer()
    originals = {m: dict(vars(mod)) for m, mod in MODS.items()}
    plain, traced = run.measure(MODS, jobs, loaded(jobs), 0, tracer)
    assert [t[1] for t in traced] == [p[1] for p in plain]
    assert {m: dict(vars(mod)) for m, mod in MODS.items()} == originals  # unwrapped
    assert not hasattr(MODS["cost"].SegmentCostEvaluator.delta, "__wrapped__")
    metrics = traced[0][2]
    assert set(metrics) | {"segmentation.segments", "circuit.parse_qasm_s",
                           "hardware.load_cluster_s", "trace.overhead_s"} == set(spans.LAYER_METRICS)
    assert 0 < metrics["cost.layout_keys"] <= metrics["cost.layout_lookups"]
    assert metrics["anneal.uphill_accepts"] <= metrics["anneal.iterations"]
    assert metrics["anneal.self_s"] <= metrics["anneal.segment_s"]
    assert metrics["hardware.remote_ops"] > 0 and metrics["placement.initial_cut"] > 0
    assert metrics["harness.baseline_s"] > 0
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.start)))
