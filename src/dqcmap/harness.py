"""Experiment harness: single mappings, ablation arms, and cost-ratio sweeps.

Reports are plain dicts rendered to canonical JSON (sorted keys, no
timestamps), so identical inputs and seeds produce byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import asdict

from . import __version__
from .anneal import AnnealParams, Plan, compile, prepare
from .circuit import Circuit
from .cost import CostParams
from .hardware import ClusterTopology
from .placement import check_fits
from .seeding import split_seed
from .segmentation import SegmentationParams

SCHEMA_VERSION = 1

ARMS = ("baseline", "L1", "L2", "L3")
BASELINE_SAMPLES = 10


def render_json(report: dict) -> str:
    """Canonical JSON; a non-finite number raises ValueError, as JSON has no
    spelling for it."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _plan_dict(plan: Plan) -> dict:
    return {
        "segments": [
            {
                "index": s.segment.index,
                "from_layer": s.segment.from_layer,
                "to_layer": s.segment.to_layer,
                "n_layers": s.segment.n_layers,
                "two_qubit_gates": sum(s.segment.pairs.values()),
            }
            for s in plan.steps
        ],
        "assignments": [
            {"segment": s.segment.index, "qpu_of": list(s.assignment.qpu_of)}
            for s in plan.steps
        ],
        "costs": [
            dict(asdict(s.costs), segment=s.segment.index) for s in plan.steps
        ],
        "totals": asdict(plan.totals),
        "epr_pairs": plan.totals.epr_pairs,
        "per_link_epr": {f"{a}-{b}": v for (a, b), v in sorted(plan.per_link_epr.items())},
    }


def _run_header(command: str, seed: int, circuit: Circuit,
                cluster: ClusterTopology, cp: CostParams, depth: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "run": {
            "command": command,
            "seed": seed,
            "version": __version__,
            "costs": asdict(cp),
        },
        "circuit": {
            "name": circuit.name,
            "n_qubits": circuit.n_qubits,
            "n_gates": circuit.n_gates,
            "two_qubit_gates": circuit.two_qubit_gate_count,
            "depth": depth,
        },
        "topology": {
            "qpus": [
                {"id": p.id, "name": p.name, "comp_capacity": p.comp_capacity}
                for p in cluster.qpus
            ],
            "links": len(cluster.links),
        },
    }


def run_map(
    circuit: Circuit,
    cluster: ClusterTopology,
    seed: int = 0,
    seg_params: SegmentationParams | None = None,
    cost_params: CostParams | None = None,
    anneal_params: AnnealParams | None = None,
    decay: float | None = None,
) -> dict:
    """Full pipeline on one circuit; report includes a random-placement
    baseline (median of BASELINE_SAMPLES static draws) for context. The
    circuit is layered and segmented once for the plan and every draw.
    decay is the interaction graph decay of the clustering (None: the
    compile default)."""
    cp = cost_params if cost_params is not None else CostParams()
    check_fits(circuit.n_qubits, cluster)  # before the preparation it would waste
    prep = prepare(circuit, seg_params)
    plan = compile(circuit, cluster, seed=seed, cost_params=cp,
                   anneal_params=anneal_params, decay=decay, prepared=prep)
    base_totals = []
    for i in range(BASELINE_SAMPLES):
        base = compile(circuit, cluster, seed=split_seed(seed, f"baseline:{i}"),
                       cost_params=cp, initial="random", do_anneal=False,
                       prepared=prep)
        base_totals.append(base.total_cost)
    base_median = statistics.median(base_totals)
    reduction = ((base_median - plan.total_cost) / base_median) if base_median > 0 else 0.0
    report = _run_header("map", seed, circuit, cluster, cp, prep.layered.depth)
    report.update(_plan_dict(plan))
    report["baseline"] = {
        "samples": BASELINE_SAMPLES,
        "median_total": base_median,
        "reduction": reduction,
    }
    return report


def run_ablate(
    circuit: Circuit,
    cluster: ClusterTopology,
    seed: int = 0,
    seg_params: SegmentationParams | None = None,
    cost_params: CostParams | None = None,
    anneal_params: AnnealParams | None = None,
    decay: float | None = None,
) -> dict:
    """Four-arm comparison isolating each pipeline stage.

    baseline: one static random feasible placement. L1: pattern segmentation
    plus clustering, no annealing. L2: random segment boundaries, clustering,
    annealing. L3: the full pipeline. Arms share cost parameters and derive
    their randomness from the run seed; reductions are relative to baseline.
    All arms share one layering and pattern segmentation; L2 takes its
    segment count from the pattern segments. decay is the interaction graph
    decay of the three clustering arms (None: the compile default).
    """
    cp = cost_params if cost_params is not None else CostParams()
    check_fits(circuit.n_qubits, cluster)
    prep = prepare(circuit, seg_params)
    plans = {
        "baseline": compile(circuit, cluster, seed=seed, cost_params=cp,
                            initial="random", do_anneal=False, prepared=prep),
        "L1": compile(circuit, cluster, seed=seed, cost_params=cp,
                      decay=decay, do_anneal=False, prepared=prep),
        "L2": compile(circuit, cluster, seed=seed, cost_params=cp,
                      anneal_params=anneal_params, decay=decay,
                      segmentation_mode="random", prepared=prep),
        "L3": compile(circuit, cluster, seed=seed, cost_params=cp,
                      anneal_params=anneal_params, decay=decay, prepared=prep),
    }
    base_total = plans["baseline"].total_cost
    report = _run_header("ablate", seed, circuit, cluster, cp, prep.layered.depth)
    report["arms"] = {
        arm: {
            "totals": asdict(plan.totals),
            "epr_pairs": plan.totals.epr_pairs,
            "segments": len(plan.steps),
        }
        for arm, plan in plans.items()
    }
    report["reductions"] = {
        arm: ((base_total - plans[arm].total_cost) / base_total) if base_total > 0 else 0.0
        for arm in ARMS[1:]
    }
    return report


SWEEP_COLUMNS = ("ratio", "e_inter_share", "e_local_share", "e_move_share", "total")


def run_sweep_ratio(
    circuit: Circuit,
    cluster: ClusterTopology,
    ratios: list[float],
    seed: int = 0,
    seg_params: SegmentationParams | None = None,
    anneal_params: AnnealParams | None = None,
    cost_params: CostParams | None = None,
    decay: float | None = None,
) -> list[dict]:
    """Compile once per inter:intra cost ratio; shares are the gamma-weighted
    component magnitudes, so the intra column tracks the local overhead in
    absolute terms while the total falls with cheaper interconnects. decay
    is the interaction graph decay of the clustering (None: the compile
    default). Each row's parameters are cost_params (None: CostParams())
    at its ratio (see CostParams.with_ratio); a bad ratio anywhere in the
    list is refused before any compile."""
    if not ratios:
        raise ValueError("no ratios given")
    base = cost_params if cost_params is not None else CostParams()
    params = [base.with_ratio(r) for r in ratios]
    check_fits(circuit.n_qubits, cluster)
    prep = prepare(circuit, seg_params)
    rows = []
    for r, cp in zip(ratios, params):
        plan = compile(circuit, cluster, seed=seed, cost_params=cp,
                       anneal_params=anneal_params, decay=decay, prepared=prep)
        rows.append({
            "ratio": r,
            "e_inter_share": cp.gamma1 * plan.totals.e_inter,
            "e_local_share": cp.gamma2 * plan.totals.e_local,
            "e_move_share": cp.gamma3 * plan.totals.e_move,
            "total": plan.totals.e_total,
        })
    return rows


def render_sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in SWEEP_COLUMNS})
    return buf.getvalue()
