"""Output checks that share no code with the compiler under test.

The checker layers the generated gate list itself (ASAP), finds the cheapest
interconnect paths itself (every simple path of the topology JSON's links),
and from those recomputes what a report claims. Each check returns a list of
problems; an empty list means the report passed.
"""
from __future__ import annotations

from dataclasses import dataclass

REL_TOL = 1e-9


@dataclass(frozen=True)
class Costs:
    """The compiler's default cost parameters, which every job runs with."""

    cx_cost: float = 1.0
    swap_cost: float = 3.0
    remote_op_cost: float = 5.0
    teleport_cost: float = 5.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def asap_layers(n_qubits: int, gates: list) -> list[int]:
    """1-based ASAP layer of every gate: one past the last layer on its qubits."""
    last = [0] * n_qubits
    out = []
    for _, qubits, _ in gates:
        layer = 1 + max(last[q] for q in qubits)
        for q in qubits:
            last[q] = layer
        out.append(layer)
    return out


def interactions(gates: list, layer_of: list[int], lo: int, hi: int) -> dict:
    pairs: dict[tuple[int, int], int] = {}
    for (_, qubits, _), layer in zip(gates, layer_of):
        if len(qubits) == 2 and lo <= layer <= hi:
            key = tuple(sorted(qubits))
            pairs[key] = pairs.get(key, 0) + 1
    return pairs


def cheapest_paths(config: dict) -> dict:
    """(src, dst) -> (cost, links) over all simple paths, cheapest first and
    fewest links next. Raises ValueError when two distinct paths tie, since
    per-link EPR counts would then depend on the compiler's tie-break."""
    n = len(config["qpus"])
    adj: dict[int, list[tuple[int, float]]] = {p: [] for p in range(1, n + 1)}
    for link in config["links"]:
        adj[link["a"]].append((link["b"], link["cost_factor"]))
        adj[link["b"]].append((link["a"], link["cost_factor"]))
    out = {}
    for src in range(1, n + 1):
        found: dict[int, list[tuple[float, int, tuple]]] = {p: [] for p in adj}

        def walk(node: int, cost: float, links: tuple, seen: frozenset) -> None:
            found[node].append((cost, len(links), links))
            for nxt, c in adj[node]:
                if nxt not in seen:
                    edge = (min(node, nxt), max(node, nxt))
                    walk(nxt, cost + c, links + (edge,), seen | {nxt})

        walk(src, 0.0, (), frozenset({src}))
        for dst, paths in found.items():
            paths.sort()
            if len(paths) > 1 and paths[0][:2] == paths[1][:2]:
                raise ValueError(f"two cheapest paths between QPUs {src} and {dst}")
            out[(src, dst)] = (paths[0][0], paths[0][2])
    return out


def _check_header(job, report: dict, depth: int, costs: Costs) -> list[str]:
    errs = []
    circ = report["circuit"]
    two_q = sum(1 for _, qs, _ in job.gates if len(qs) == 2)
    for key, want in (("n_qubits", job.n_qubits), ("n_gates", len(job.gates)),
                      ("two_qubit_gates", two_q), ("depth", depth)):
        if circ[key] != want:
            errs.append(f"circuit.{key} is {circ[key]}, expected {want}")
    caps = [q["comp_capacity"] for q in job.config["qpus"]]
    if [q["comp_capacity"] for q in report["topology"]["qpus"]] != caps:
        errs.append("topology capacities differ from the input")
    if report["run"]["costs"] != vars(costs):
        errs.append("report ran with other cost parameters")
    return errs


def _check_sum(where: str, c: dict, costs: Costs) -> list[str]:
    want = costs.gamma1 * c["e_inter"] + costs.gamma2 * c["e_local"] + costs.gamma3 * c["e_move"]
    return [] if close(c["e_total"], want) else [
        f"{where}: e_total {c['e_total']} is not the weighted sum {want}"]


def check_map(job, report: dict, costs: Costs = Costs()) -> list[str]:
    """Recompute every segment of a `run_map` report from its assignments."""
    layer_of = asap_layers(job.n_qubits, job.gates)
    depth = max(layer_of, default=0)
    errs = _check_header(job, report, depth, costs)
    paths = cheapest_paths(job.config)
    caps = [q["comp_capacity"] for q in job.config["qpus"]]
    segs, assigns, seg_costs = report["segments"], report["assignments"], report["costs"]
    if not len(segs) == len(assigns) == len(seg_costs) or not segs:
        return errs + ["segments, assignments and costs differ in number"]
    per_link = {f"{lk['a']}-{lk['b']}": 0 for lk in job.config["links"]}
    sums = dict(e_inter=0.0, e_local=0.0, e_move=0.0, e_total=0.0, epr_pairs=0)
    expect_from, prev = 1, None
    for seg, assign, cost in zip(segs, assigns, seg_costs):
        where = f"segment {seg['index']}"
        if seg["from_layer"] != expect_from or seg["to_layer"] < seg["from_layer"]:
            errs.append(f"{where}: layers {seg['from_layer']}..{seg['to_layer']} leave a gap")
        expect_from = seg["to_layer"] + 1
        pairs = interactions(job.gates, layer_of, seg["from_layer"], seg["to_layer"])
        if seg["two_qubit_gates"] != sum(pairs.values()):
            errs.append(f"{where}: two_qubit_gates {seg['two_qubit_gates']}, "
                        f"expected {sum(pairs.values())}")
        qpu_of = assign["qpu_of"]
        if len(qpu_of) != job.n_qubits or not all(1 <= p <= len(caps) for p in qpu_of):
            errs.append(f"{where}: assignment does not place every qubit on a QPU")
            return errs
        for pid, cap in enumerate(caps, start=1):
            if qpu_of.count(pid) > cap:
                errs.append(f"{where}: QPU {pid} holds {qpu_of.count(pid)} > {cap} qubits")
        e_inter, epr, floor = 0.0, 0, 0.0
        for (i, j), c in pairs.items():
            if qpu_of[i] == qpu_of[j]:
                floor += c * costs.cx_cost
                continue
            path_cost, links = paths[(qpu_of[i], qpu_of[j])]
            e_inter += c * costs.remote_op_cost * path_cost
            epr += c * len(links)
            for a, b in links:
                per_link[f"{a}-{b}"] += c
        e_move = 0.0
        if prev is not None:
            for src, dst in zip(prev, qpu_of):
                if src != dst:
                    path_cost, links = paths[(src, dst)]
                    e_move += costs.teleport_cost * path_cost
                    epr += len(links)
                    for a, b in links:
                        per_link[f"{a}-{b}"] += 1
        prev = qpu_of
        for key, want in (("e_inter", e_inter), ("e_move", e_move)):
            if not close(cost[key], want):
                errs.append(f"{where}: {key} {cost[key]}, expected {want}")
        if cost["epr_pairs"] != epr:
            errs.append(f"{where}: epr_pairs {cost['epr_pairs']}, expected {epr}")
        if cost["e_local"] < floor - REL_TOL * max(1.0, floor):
            errs.append(f"{where}: e_local {cost['e_local']} below the cx floor {floor}")
        errs += _check_sum(where, cost, costs)
        for key in sums:
            sums[key] += cost[key]
    for key, want in sums.items():
        if not close(report["totals"][key], want):
            errs.append(f"totals.{key} {report['totals'][key]}, expected {want}")
    if report["epr_pairs"] != sums["epr_pairs"]:
        errs.append(f"epr_pairs {report['epr_pairs']}, expected {sums['epr_pairs']}")
    if report["per_link_epr"] != per_link:
        errs.append(f"per_link_epr {report['per_link_epr']}, expected {per_link}")
    base = report["baseline"]
    want = (base["median_total"] - report["totals"]["e_total"]) / base["median_total"]
    if not close(base["reduction"], want):
        errs.append(f"baseline.reduction {base['reduction']}, expected {want}")
    return errs


def check_ablate(job, report: dict, costs: Costs = Costs()) -> list[str]:
    """An ablation report carries no assignments: check its header and that
    each arm's numbers agree with each other."""
    layer_of = asap_layers(job.n_qubits, job.gates)
    errs = _check_header(job, report, max(layer_of, default=0), costs)
    arms = report["arms"]
    if sorted(arms) != ["L1", "L2", "L3", "baseline"]:
        return errs + [f"arms are {sorted(arms)}"]
    for name, arm in arms.items():
        totals = arm["totals"]
        errs += _check_sum(f"arm {name}", totals, costs)
        if arm["epr_pairs"] != totals["epr_pairs"]:
            errs.append(f"arm {name}: replayed {arm['epr_pairs']} EPR pairs, "
                        f"costed {totals['epr_pairs']}")
        if min(totals["e_inter"], totals["e_local"], totals["e_move"]) < 0:
            errs.append(f"arm {name}: negative cost component")
    base = arms["baseline"]["totals"]["e_total"]
    for name, got in report["reductions"].items():
        want = (base - arms[name]["totals"]["e_total"]) / base
        if not close(got, want):
            errs.append(f"reductions.{name} {got}, expected {want}")
    return errs
